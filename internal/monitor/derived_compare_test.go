package monitor

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/netsim"
)

// repeats reports whether o reports rows, position for position, in every
// column but the stamp: the compare the Derived memo made on a built
// observation before it compared the collection in place (reports), kept
// here as that compare's oracle.
func (o *observation) repeats(rows []any) bool {
	if len(rows) != len(o.rows) {
		return false
	}
	n := len(o.cols)
	for i, v := range o.rows {
		if i%n != o.stamp && rows[i] != v {
			return false
		}
	}
	return true
}

// randomCollection is a collection of data from dev with 0–5 rows drawn
// from small pools, so rows repeat values and each other.
func randomCollection(rng *rand.Rand, dev string, data DataType, at time.Time) Collection {
	col := Collection{Device: dev, Engine: EngineCLI, Data: data, At: at}
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	n := rng.Intn(6)
	switch data {
	case DataVersion:
		col.Version = &netsim.VersionInfo{Name: dev, Vendor: pick("vendor1", "vendor2"),
			OSVersion: pick("1.0", "2.1"), UptimeS: int64(rng.Intn(3))}
	case DataInterfaces:
		for range n {
			col.Interfaces = append(col.Interfaces, netsim.IfaceStatus{Name: pick("et1", "et2", "et3"),
				OperStatus: pick("up", "down"), SpeedMbps: int64(1+rng.Intn(2)) * 10000, InOctets: rng.Uint64()})
		}
	case DataLLDP:
		for range n {
			col.LLDP = append(col.LLDP, netsim.LLDPNeighbor{LocalInterface: pick("et1", "et2"),
				NeighborDevice: pick("sw1", "sw2"), NeighborInterface: pick("et1", "et2")})
		}
	case DataBGP:
		for range n {
			col.BGP = append(col.BGP, netsim.BGPPeerStatus{PeerAddr: pick("10.0.0.1", "10.0.0.2"),
				State: pick("Established", "Active"), Family: pick("v4", "v6")})
		}
	}
	return col
}

// cloneCollection copies col's rows, so a variant's edits leave col as it is.
func cloneCollection(col Collection) Collection {
	col.Interfaces, col.LLDP, col.BGP = slices.Clone(col.Interfaces), slices.Clone(col.LLDP), slices.Clone(col.BGP)
	if col.Version != nil {
		v := *col.Version
		col.Version = &v
	}
	return col
}

// rowsOf is how many rows col reports.
func rowsOf(col Collection) int {
	switch col.Data {
	case DataVersion:
		return 1
	case DataInterfaces:
		return len(col.Interfaces)
	case DataLLDP:
		return len(col.LLDP)
	}
	return len(col.BGP)
}

// flipColumn changes the field of col that feeds column c of row r.
func flipColumn(col *Collection, r, c int) {
	switch col.Data {
	case DataVersion:
		switch c {
		case 0:
			col.Device += "x"
		case 1:
			col.Version.Vendor += "x"
		case 2:
			col.Version.OSVersion += "x"
		case 3:
			col.Version.UptimeS++
		case 4:
			col.At = col.At.Add(time.Minute)
		}
	case DataInterfaces:
		ifc := &col.Interfaces[r]
		switch c {
		case 0:
			ifc.Name += "x"
		case 1:
			col.Device += "x"
		case 2:
			ifc.OperStatus += "x"
		case 3:
			ifc.SpeedMbps++
		case 4:
			col.At = col.At.Add(time.Minute)
		}
	case DataLLDP:
		n := &col.LLDP[r]
		switch c {
		case 0:
			n.LocalInterface += "x"
		case 1:
			n.NeighborDevice += "x"
		case 2:
			n.NeighborInterface += "x"
		case 3:
			col.Device += "x"
		}
	case DataBGP:
		p := &col.BGP[r]
		switch c {
		case 0:
			p.PeerAddr += "x"
		case 1:
			col.Device += "x"
		case 2:
			p.Family += "x"
		case 3:
			p.State += "x"
		}
	}
}

// TestDerivedCompareInPlaceEqualsObserve: the memo's early answer is the
// late one. Over seeded collections of the four data types the Derived
// models are fed from, with memo rows taken from a real observe, the
// in-place compare (reports) answers what building the observation and
// comparing it (observe(col, rows).repeats(rows)) does, for the same
// collection, one row more or fewer, each column of each row flipped in
// turn, another device's name, a value of another type in the memo, and no
// memo at all. A flip of the stamp column alone still matches.
func TestDerivedCompareInPlaceEqualsObserve(t *testing.T) {
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	kinds := map[string]int{}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, data := range []DataType{DataVersion, DataInterfaces, DataLLDP, DataBGP} {
			base := randomCollection(rng, "sw1", data, at)
			memo := observe(base, nil).rows
			check := func(kind string, col Collection, rows []any, want bool) {
				t.Helper()
				kinds[kind]++
				oracle := observe(col, rows).repeats(rows)
				if got := reports(col, rows); got != oracle {
					t.Fatalf("seed %d %s, %s: the in-place compare says %v, observe and repeats %v\ncollection %+v\nmemo %v",
						seed, data, kind, got, oracle, col, rows)
				}
				if oracle != want {
					t.Fatalf("seed %d %s, %s: repeats says %v, want %v", seed, data, kind, oracle, want)
				}
			}
			check("same", cloneCollection(base), memo, true)
			check("no memo", cloneCollection(base), nil, rowsOf(base) == 0)
			other := cloneCollection(base)
			other.Device = "sw2"
			check("another device", other, memo, rowsOf(base) == 0)
			if data != DataVersion {
				more := cloneCollection(base)
				switch data {
				case DataInterfaces:
					more.Interfaces = append(more.Interfaces, netsim.IfaceStatus{Name: "et9", OperStatus: "up"})
				case DataLLDP:
					more.LLDP = append(more.LLDP, netsim.LLDPNeighbor{LocalInterface: "et9"})
				case DataBGP:
					more.BGP = append(more.BGP, netsim.BGPPeerStatus{PeerAddr: "10.9.9.9"})
				}
				check("one row more", more, memo, false)
				if rowsOf(base) > 0 {
					fewer := cloneCollection(base)
					fewer.Interfaces, fewer.LLDP, fewer.BGP = shorter(fewer.Interfaces), shorter(fewer.LLDP), shorter(fewer.BGP)
					check("one row fewer", fewer, memo, false)
				}
			}
			shape := derivedOf(data)
			for r := 0; r < rowsOf(base); r++ {
				for c := range shape.cols {
					flipped := cloneCollection(base)
					flipColumn(&flipped, r, c)
					kind := "a flipped column"
					if c == shape.stamp {
						kind = "a flipped stamp"
					}
					check(kind, flipped, memo, c == shape.stamp)
				}
			}
			if len(memo) > 0 {
				retyped := slices.Clone(memo)
				i := rng.Intn(len(retyped))
				switch v := retyped[i].(type) {
				case string:
					retyped[i] = []byte(v)[0]
				case int64:
					retyped[i] = int(v)
				}
				check("a retyped memo value", cloneCollection(base), retyped, i%len(shape.cols) == shape.stamp)
			}
		}
	}
	for _, kind := range []string{"same", "no memo", "another device", "one row more", "one row fewer",
		"a flipped column", "a flipped stamp", "a retyped memo value"} {
		if kinds[kind] == 0 {
			t.Errorf("no case of %s was checked", kind)
		}
	}
}

// shorter drops the last element of xs, if any.
func shorter[T any](xs []T) []T {
	if len(xs) == 0 {
		return xs
	}
	return xs[:len(xs)-1]
}
