package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/telemetry"
)

// Deployment wires the §4.3.3 topology: "We employ standard MySQL
// replication using one master and multiple slaves, one per DC. ... Each
// database server is fronted with multiple write and read API service
// replicas deployed locally. While writes must be forwarded to the write
// API service in the master database region, client read requests can be
// serviced locally."
type Deployment struct {
	mu           sync.Mutex
	registry     *fbnet.Registry
	masterRegion string
	masterStore  *fbnet.Store
	writeSrv     *Server
	regions      map[string]*regionState
	replicasPer  int

	// degraded is true between a master failure and the promotion that
	// restores writes: reads keep serving stale-but-consistent data from
	// replicas while every write errors cleanly.
	degraded bool
	// promotions counts replica promotions (telemetry; nil-safe).
	promotions *telemetry.Counter

	watchStop chan struct{}
	watchWG   sync.WaitGroup
	watching  bool
}

type regionState struct {
	name     string
	replica  *relstore.Replica // nil in the master region
	store    *fbnet.Store
	readSrvs []*Server
}

// NewDeployment builds a deployment: the master database lives in
// masterRegion; every listed region gets a local database (replica for
// non-master regions) fronted by readReplicas read service replicas. The
// master region also runs the write service.
//
// Its observability surface is on tel (nil counts nothing): the master
// store's planner and transaction metrics, per non-master region the
// replica's replication-lag gauge and health check, a degraded-mode gauge
// (1 while writes are unavailable) and a promotions counter. A replica
// reports where its master does, so the stores and replicas a promotion
// rebuilds report there too.
func NewDeployment(registry *fbnet.Registry, masterRegion string, regions []string, readReplicas int, tel *telemetry.Registry) (*Deployment, error) {
	if readReplicas <= 0 {
		readReplicas = 1
	}
	masterDB := relstore.NewDB("db."+masterRegion, tel)
	masterStore, err := fbnet.Open(masterDB, registry)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		registry:     registry,
		masterRegion: masterRegion,
		masterStore:  masterStore,
		regions:      make(map[string]*regionState),
		replicasPer:  readReplicas,
	}
	tel.Help("robotron_service_degraded", "1 while the store deployment is read-only (master dead, not yet promoted)")
	tel.GaugeFunc("robotron_service_degraded", func() float64 {
		if d.Degraded() {
			return 1
		}
		return 0
	})
	tel.Help("robotron_service_promotions_total", "replica-to-master promotions performed")
	d.promotions = tel.Counter("robotron_service_promotions_total")
	seen := map[string]bool{}
	for _, r := range regions {
		if seen[r] {
			return nil, fmt.Errorf("service: duplicate region %q", r)
		}
		seen[r] = true
	}
	if !seen[masterRegion] {
		return nil, fmt.Errorf("service: master region %q not in region list", masterRegion)
	}
	for _, name := range regions {
		rs := &regionState{name: name}
		if name == masterRegion {
			rs.store = masterStore
		} else {
			rs.replica = relstore.NewReplica(masterDB, "db."+name)
			// Bootstrap the schema immediately; data replicates on the
			// asynchronous stream.
			if err := rs.replica.CatchUp(); err != nil {
				d.Close()
				return nil, err
			}
			rs.store = masterStore.ReadOnlyView(rs.replica.DB())
		}
		for i := 0; i < readReplicas; i++ {
			srv, err := NewReadServer(fmt.Sprintf("read.%s.%d", name, i), "127.0.0.1:0", rs.store)
			if err != nil {
				d.Close()
				return nil, err
			}
			rs.readSrvs = append(rs.readSrvs, srv)
		}
		d.regions[name] = rs
	}
	d.writeSrv, err = NewWriteServer("write."+masterRegion, "127.0.0.1:0", masterStore)
	if err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// Degraded reports whether the deployment is in read-only degraded mode.
func (d *Deployment) Degraded() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degraded
}

// MasterStore returns the store over the master database (in-process
// access for the management tools colocated with the master).
func (d *Deployment) MasterStore() *fbnet.Store {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.masterStore
}

// MasterRegion returns the current master region name.
func (d *Deployment) MasterRegion() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.masterRegion
}

// WriteAddr returns the write service address.
func (d *Deployment) WriteAddr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writeSrv.Addr()
}

// ReadAddrs returns the read service addresses of a region.
func (d *Deployment) ReadAddrs(region string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	rs, ok := d.regions[region]
	if !ok {
		return nil
	}
	out := make([]string, len(rs.readSrvs))
	for i, s := range rs.readSrvs {
		out[i] = s.Addr()
	}
	return out
}

// AllReadAddrs returns read addresses of every region except skip, for
// cross-region fallback.
func (d *Deployment) AllReadAddrs(skip string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var names []string
	for n := range d.regions {
		if n != skip {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		for _, s := range d.regions[n].readSrvs {
			out = append(out, s.Addr())
		}
	}
	return out
}

// Replicate catches every region's replica up with the master (the
// asynchronous replication stream, "typical lag of under one second").
func (d *Deployment) Replicate() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, rs := range d.regions {
		if rs.replica == nil {
			continue
		}
		if !rs.replica.DB().Healthy() {
			continue // a down replica catches up after recovery
		}
		if err := rs.replica.CatchUp(); err != nil {
			if errors.Is(err, relstore.ErrMasterDown) {
				continue // degraded mode: replicas serve what they have
			}
			return err
		}
	}
	return nil
}

// StartReplication begins background replication at the given interval.
func (d *Deployment) StartReplication(interval time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, rs := range d.regions {
		if rs.replica != nil {
			rs.replica.StartAuto(interval)
		}
	}
}

// Lag returns each non-master region's replication lag in binlog entries.
func (d *Deployment) Lag() map[string]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := map[string]uint64{}
	for name, rs := range d.regions {
		if rs.replica != nil {
			out[name] = rs.replica.Lag()
		}
	}
	return out
}

// KillMaster simulates a master database failure and enters degraded
// read-only mode: every region's read replicas keep serving the last
// replicated (transaction-consistent) state, while writes keep hitting
// the write service and error cleanly because the backing database is
// down. The mode ends when a replica is promoted.
func (d *Deployment) KillMaster() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.killMasterLocked()
}

func (d *Deployment) killMasterLocked() {
	if d.degraded {
		return
	}
	d.regions[d.masterRegion].store.DB().SetDown(true)
	d.degraded = true
}

// PromoteBest promotes the most caught-up healthy replica (the paper
// promotes "the slave in the nearest data center"; with equal distances
// in simulation, least data loss wins). Returns the promoted region.
func (d *Deployment) PromoteBest() (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.promoteBestLocked(); err != nil {
		return "", err
	}
	return d.masterRegion, nil
}

func (d *Deployment) promoteBestLocked() error {
	best := ""
	var bestApplied uint64
	var names []string
	for name := range d.regions {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic tie-break
	for _, name := range names {
		rs := d.regions[name]
		if rs.replica == nil || !rs.replica.DB().Healthy() {
			continue
		}
		if a := rs.replica.Applied(); best == "" || a > bestApplied {
			best, bestApplied = name, a
		}
	}
	if best == "" {
		return fmt.Errorf("service: no healthy replica to promote")
	}
	return d.promoteLocked(best)
}

// Promote promotes the replica in newMasterRegion to master, restoring
// write availability and ending degraded mode.
func (d *Deployment) Promote(newMasterRegion string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.promoteLocked(newMasterRegion)
}

// FailMasterAndPromote simulates a master database failure and promotes
// the replica in newMasterRegion ("when the master goes down, the slave in
// the nearest data center is promoted to master"). A new write service is
// started in the promoted region; remaining regions re-replicate from the
// new master.
func (d *Deployment) FailMasterAndPromote(newMasterRegion string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.regions[newMasterRegion]; !ok {
		return fmt.Errorf("service: unknown region %q", newMasterRegion)
	}
	d.killMasterLocked()
	return d.promoteLocked(newMasterRegion)
}

func (d *Deployment) promoteLocked(newMasterRegion string) error {
	target, ok := d.regions[newMasterRegion]
	if !ok {
		return fmt.Errorf("service: unknown region %q", newMasterRegion)
	}
	if target.replica == nil {
		return fmt.Errorf("service: %s is already the master region", newMasterRegion)
	}
	// The dead master's write service goes with it.
	d.writeSrv.Close()

	newMasterDB := target.replica.Promote()
	newStore, err := fbnet.Open(newMasterDB, d.registry)
	if err != nil {
		return err
	}
	target.replica = nil
	target.store = newStore
	// Re-front the promoted region's read service replicas on the same
	// store object (they already share the underlying DB; rebuild to drop
	// the stale view).
	for i, srv := range target.readSrvs {
		srv.Close()
		ns, err := NewReadServer(fmt.Sprintf("read.%s.%d", newMasterRegion, i), "127.0.0.1:0", newStore)
		if err != nil {
			return err
		}
		target.readSrvs[i] = ns
	}
	// Remaining healthy regions replicate from the new master.
	for name, rs := range d.regions {
		if name == newMasterRegion || name == d.masterRegion {
			continue
		}
		if rs.replica != nil {
			applied := rs.replica.Applied()
			rs.replica.StopAuto()
			fresh := relstore.NewReplica(newMasterDB, "db."+name)
			// Fast-forward: reuse is non-trivial with divergent binlogs, so
			// rebuild from the new master's binlog (it contains history
			// from seq 1, inherited through replication).
			_ = applied
			rs.replica = fresh
			rs.store = newStore.ReadOnlyView(fresh.DB())
			for i, srv := range rs.readSrvs {
				srv.Close()
				ns, err := NewReadServer(fmt.Sprintf("read.%s.%d", name, i), "127.0.0.1:0", rs.store)
				if err != nil {
					return err
				}
				rs.readSrvs[i] = ns
			}
		}
	}
	d.writeSrv, err = NewWriteServer("write."+newMasterRegion, "127.0.0.1:0", newStore)
	if err != nil {
		return err
	}
	d.masterRegion = newMasterRegion
	d.masterStore = newStore
	d.degraded = false
	d.promotions.Inc()
	return nil
}

// StartFailoverWatch begins automatic master-failure detection: every
// interval the master database's health is probed and, when it is found
// dead, the deployment enters degraded mode and promotes the most
// caught-up healthy replica. Detection-to-promotion is observable via
// the robotron_service_degraded gauge.
func (d *Deployment) StartFailoverWatch(interval time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.watching {
		return
	}
	d.watching = true
	d.watchStop = make(chan struct{})
	d.watchWG.Add(1)
	go func() {
		defer d.watchWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-d.watchStop:
				return
			case <-t.C:
				d.mu.Lock()
				if !d.regions[d.masterRegion].store.DB().Healthy() {
					d.killMasterLocked()
					// Best-effort: with no promotable replica the
					// deployment stays degraded and retries next tick.
					_ = d.promoteBestLocked()
				}
				d.mu.Unlock()
			}
		}
	}()
}

// StopFailoverWatch halts automatic failure detection.
func (d *Deployment) StopFailoverWatch() {
	d.mu.Lock()
	if !d.watching {
		d.mu.Unlock()
		return
	}
	d.watching = false
	close(d.watchStop)
	d.mu.Unlock()
	d.watchWG.Wait()
}

// FailReadReplica shuts one read service replica in a region down,
// simulating a process crash (clients fail over to the remaining local
// replicas, §4.3.3).
func (d *Deployment) FailReadReplica(region string, idx int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	rs, ok := d.regions[region]
	if !ok || idx < 0 || idx >= len(rs.readSrvs) {
		return fmt.Errorf("service: no read replica %d in region %q", idx, region)
	}
	rs.readSrvs[idx].Close()
	return nil
}

// Close shuts the whole deployment down.
func (d *Deployment) Close() {
	d.StopFailoverWatch()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, rs := range d.regions {
		if rs.replica != nil {
			rs.replica.StopAuto()
		}
		for _, s := range rs.readSrvs {
			s.Close()
		}
	}
	if d.writeSrv != nil {
		d.writeSrv.Close()
	}
}
