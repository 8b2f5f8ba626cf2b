// Command fbnetd runs a multi-region FBNet API deployment (SIGCOMM '16,
// §4.3): a master database region with a write service, per-region read
// replicas fed by asynchronous replication, and read service replicas in
// every region. It prints the service addresses, optionally seeds demo
// data, and serves until interrupted.
//
// Usage:
//
//	fbnetd -regions ash,fra,sin -master ash -read-replicas 2 -seed
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/fbnet/service"
)

func main() {
	regions := flag.String("regions", "ash,fra,sin", "comma-separated region names")
	master := flag.String("master", "ash", "master database region")
	readReplicas := flag.Int("read-replicas", 2, "read service replicas per region")
	replInterval := flag.Duration("replication-interval", 250*time.Millisecond, "replica pull interval")
	seed := flag.Bool("seed", false, "seed demo objects and run a sample query")
	designAPI := flag.Bool("design", true, "enable the high-level design write APIs on the write service")
	flag.Parse()

	regionList := strings.Split(*regions, ",")
	d, err := service.NewDeployment(fbnet.NewCatalog(), *master, regionList, *readReplicas, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer d.Close()
	d.StartReplication(*replInterval)
	if *designAPI {
		if _, err := d.EnableDesignAPI(design.DefaultPools()); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("fbnetd: master region %s\n", d.MasterRegion())
	fmt.Printf("  write service: %s\n", d.WriteAddr())
	for _, region := range regionList {
		fmt.Printf("  %s read replicas: %s\n", region, strings.Join(d.ReadAddrs(region), ", "))
	}

	if *seed {
		c := service.NewClient(d, regionList[0])
		defer c.Close()
		ctx := context.Background()
		resp, err := c.Write(ctx, []service.WriteOp{
			service.CreateOp("Region", map[string]any{"name": "demo"}),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "seed error:", err)
			os.Exit(1)
		}
		fmt.Printf("seeded Region id %d; waiting for replication...\n", resp.CreatedIDs[0])
		if *designAPI {
			reply, err := c.BuildCluster(ctx, &service.BuildClusterRequest{
				Meta: service.ChangeMeta{EmployeeID: "fbnetd", TicketID: "T-seed",
					Description: "demo cluster", Domain: "pop", NowUnix: time.Now().Unix()},
				Site: "demo-pop", Cluster: "demo-pop-c1", Template: "pop-gen1",
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "design API error:", err)
				os.Exit(1)
			}
			fmt.Printf("design API built demo cluster: change %d, %d objects created\n",
				reply.ChangeID, reply.NumCreated)
		}
		time.Sleep(2 * *replInterval)
		res, err := c.Get(ctx, "Region", []string{"name"}, service.Eq("name", "demo"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "query error:", err)
			os.Exit(1)
		}
		fmt.Printf("read back %d row(s) from a local replica\n", len(res))
	}

	fmt.Println("serving; Ctrl-C to stop")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
}
