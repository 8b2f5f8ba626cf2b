// Command netsimd runs a standalone simulated device fleet with a TCP
// management endpoint — the "network" that Robotron's deployment and
// monitoring stages manage. Devices alternate between the two vendor
// personalities; a UDP syslog collector address can be configured so
// device events flow to an external passive-monitoring pipeline.
//
// Usage:
//
//	netsimd -devices 8 -listen 127.0.0.1:7777 -syslog 127.0.0.1:5514
//
// Then, from any TCP client:
//
//	device psw1.pop1
//	load-config 24
//	hostname psw1.pop1
//	...
//	commit
//	show interfaces
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/vclock"
)

func main() {
	n := flag.Int("devices", 4, "number of simulated devices")
	listen := flag.String("listen", "127.0.0.1:0", "management TCP listen address")
	syslogAddr := flag.String("syslog", "", "UDP syslog destination (optional)")
	flag.Parse()

	fleet := netsim.NewFleet(vclock.RealClock())
	var sink func(netsim.SyslogMessage)
	if *syslogAddr != "" {
		var err error
		sink, err = netsim.UDPSyslogSink(*syslogAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
	for i := 1; i <= *n; i++ {
		vendor, role := netsim.Vendor1, "psw"
		if i%2 == 0 {
			vendor, role = netsim.Vendor2, "pr"
		}
		name := fmt.Sprintf("%s%d.pop1", role, (i+1)/2)
		d, err := fleet.AddDevice(name, vendor, role, "pop1")
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if sink != nil {
			d.SetSyslogSink(sink)
		}
		fmt.Printf("device %-12s vendor=%s role=%s\n", name, vendor, role)
	}
	srv, err := fleet.ServeMgmt(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("management endpoint: %s (select with: device <name>)\n", srv.Addr())
	fmt.Println("serving; Ctrl-C to stop")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
}
