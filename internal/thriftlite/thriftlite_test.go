package thriftlite

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// The Fig. 8 schema from the paper, expressed with thriftlite tags.
type testPif struct {
	Name string `thrift:"1"`
}

type testAgg struct {
	Name     string    `thrift:"1"`
	Number   int32     `thrift:"2"`
	V4Prefix string    `thrift:"3"`
	V6Prefix string    `thrift:"4"`
	Pifs     []testPif `thrift:"5"`
}

type testDevice struct {
	Aggs []testAgg `thrift:"1"`
}

func roundTrip[T any](t *testing.T, in *T) *T {
	t.Helper()
	data, err := Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	out := new(T)
	if err := Unmarshal(data, out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return out
}

func TestRoundTripFig8Device(t *testing.T) {
	in := &testDevice{
		Aggs: []testAgg{
			{
				Name:     "ae0",
				Number:   0,
				V4Prefix: "10.128.0.0/31",
				V6Prefix: "2401:db00::/127",
				Pifs:     []testPif{{Name: "et1/1"}, {Name: "et2/1"}},
			},
			{Name: "ae1", Number: 1, Pifs: []testPif{{Name: "et3/1"}}},
		},
	}
	out := roundTrip(t, in)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
}

type allTypes struct {
	B   bool              `thrift:"1"`
	I   int64             `thrift:"2"`
	I32 int32             `thrift:"3"`
	U   uint32            `thrift:"4"`
	F   float64           `thrift:"5"`
	S   string            `thrift:"6"`
	Bs  []byte            `thrift:"7"`
	L   []string          `thrift:"8"`
	LI  []int64           `thrift:"9"`
	M   map[string]string `thrift:"10"`
	MI  map[string]int64  `thrift:"11"`
	Sub *testPif          `thrift:"12"`
	Skp string            // untagged: not serialized
}

func TestRoundTripAllTypes(t *testing.T) {
	in := &allTypes{
		B: true, I: -12345678901234, I32: -7, U: 42, F: 3.14159,
		S: "hello", Bs: []byte{0, 1, 255},
		L: []string{"a", "", "c"}, LI: []int64{-1, 0, math.MaxInt64},
		M:   map[string]string{"k1": "v1", "k2": ""},
		MI:  map[string]int64{"n": -9},
		Sub: &testPif{Name: "sub"},
		Skp: "not serialized",
	}
	out := roundTrip(t, in)
	in.Skp = ""
	// Empty-string map values survive; nil vs empty slices normalize to equal content.
	if out.M["k2"] != "" {
		t.Errorf("map empty value lost")
	}
	if !reflect.DeepEqual(in.L, out.L) || !reflect.DeepEqual(in.LI, out.LI) {
		t.Errorf("list mismatch: %+v vs %+v", in, out)
	}
	if out.Sub == nil || out.Sub.Name != "sub" {
		t.Errorf("nested struct mismatch: %+v", out.Sub)
	}
	if out.B != in.B || out.I != in.I || out.I32 != in.I32 || out.U != in.U || out.F != in.F || out.S != in.S {
		t.Errorf("scalar mismatch: %+v vs %+v", in, out)
	}
	if !bytes.Equal(out.Bs, in.Bs) {
		t.Errorf("bytes mismatch: %v vs %v", out.Bs, in.Bs)
	}
	if out.Skp != "" {
		t.Errorf("untagged field was serialized: %q", out.Skp)
	}
}

func TestZeroValuesElided(t *testing.T) {
	data, err := Marshal(&testAgg{})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 1 || data[0] != tStop {
		t.Errorf("zero struct should encode to a single STOP byte, got %v", data)
	}
}

// Schema evolution: a reader with fewer fields skips unknown ones.
type testAggV1 struct {
	Name string `thrift:"1"`
}

func TestForwardCompatibilitySkipsUnknownFields(t *testing.T) {
	data, err := Marshal(&testAgg{Name: "ae0", Number: 3, V4Prefix: "10.0.0.0/31",
		Pifs: []testPif{{Name: "et1/1"}}})
	if err != nil {
		t.Fatal(err)
	}
	var old testAggV1
	if err := Unmarshal(data, &old); err != nil {
		t.Fatalf("old reader failed on new data: %v", err)
	}
	if old.Name != "ae0" {
		t.Errorf("old reader got name %q", old.Name)
	}
}

func TestBackwardCompatibilityMissingFieldsZero(t *testing.T) {
	data, err := Marshal(&testAggV1{Name: "ae0"})
	if err != nil {
		t.Fatal(err)
	}
	var cur testAgg
	if err := Unmarshal(data, &cur); err != nil {
		t.Fatalf("new reader failed on old data: %v", err)
	}
	if cur.Name != "ae0" || cur.Number != 0 || cur.Pifs != nil {
		t.Errorf("unexpected decode: %+v", cur)
	}
}

type badDupTag struct {
	A string `thrift:"1"`
	B string `thrift:"1"`
}

type badTag struct {
	A string `thrift:"zero"`
}

// TestBadTagsRejected: a type whose tags are bad fails every call, not
// only the one that worked out its plan.
func TestBadTagsRejected(t *testing.T) {
	for call := 1; call <= 2; call++ {
		if _, err := Marshal(&badDupTag{A: "x", B: "y"}); err == nil {
			t.Errorf("call %d: duplicate field ids should be rejected", call)
		}
		if _, err := Marshal(&badTag{A: "x"}); err == nil {
			t.Errorf("call %d: non-numeric field tag should be rejected", call)
		}
		if err := Unmarshal([]byte{tStop}, &badDupTag{}); err == nil {
			t.Errorf("call %d: decoding into duplicate field ids should be rejected", call)
		}
		if err := Unmarshal([]byte{tStop}, &badTag{}); err == nil {
			t.Errorf("call %d: decoding into a non-numeric field tag should be rejected", call)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var v testAgg
	if err := Unmarshal(nil, &v); err == nil {
		t.Error("empty data should error (missing STOP)")
	}
	if err := Unmarshal([]byte{tStop}, nil); err == nil {
		t.Error("nil target should error")
	}
	var notPtr testAgg
	if err := Unmarshal([]byte{tStop}, notPtr); err == nil {
		t.Error("non-pointer target should error")
	}
	// Truncated string length.
	if err := Unmarshal([]byte{tString, 1, 200}, &v); err == nil {
		t.Error("truncated data should error")
	}
	// Trailing garbage.
	if err := Unmarshal([]byte{tStop, 99}, &v); err == nil {
		t.Error("trailing bytes should error")
	}
	// Wire type mismatch: field 1 of testAgg is string, encode as bool.
	if err := Unmarshal([]byte{tBool, 1, 1, tStop}, &v); err == nil {
		t.Error("wire type mismatch should error")
	}
}

// Property: Marshal/Unmarshal round-trips arbitrary payloads.
type quickMsg struct {
	A string           `thrift:"1"`
	B int64            `thrift:"2"`
	C bool             `thrift:"3"`
	D []string         `thrift:"4"`
	E map[string]int64 `thrift:"5"`
	F float64          `thrift:"6"`
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(a string, b int64, c bool, d []string, ks []string, vs []int64, fl float64) bool {
		in := &quickMsg{A: a, B: b, C: c, D: d, F: fl}
		if len(ks) > 0 {
			in.E = map[string]int64{}
			for i, k := range ks {
				if i < len(vs) {
					in.E[k] = vs[i]
				}
			}
		}
		data, err := Marshal(in)
		if err != nil {
			return false
		}
		var out quickMsg
		if err := Unmarshal(data, &out); err != nil {
			return false
		}
		if out.A != in.A || out.B != in.B || out.C != in.C {
			return false
		}
		if math.IsNaN(fl) {
			if !math.IsNaN(out.F) {
				return false
			}
		} else if out.F != in.F {
			return false
		}
		if len(out.D) != len(in.D) {
			return false
		}
		for i := range in.D {
			if out.D[i] != in.D[i] {
				return false
			}
		}
		if len(out.E) != len(in.E) {
			return false
		}
		for k, v := range in.E {
			if out.E[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: decoding never panics on arbitrary bytes.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		var v allTypes
		_ = Unmarshal(data, &v) // errors are fine; panics are not
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// --- RPC tests ---

type echoReq struct {
	Msg string `thrift:"1"`
	N   int64  `thrift:"2"`
}

type echoResp struct {
	Msg string `thrift:"1"`
	N   int64  `thrift:"2"`
}

func startTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Logf = t.Logf
	RegisterTyped(s, "echo", func(req *echoReq) (*echoResp, error) {
		return &echoResp{Msg: req.Msg, N: req.N + 1}, nil
	})
	RegisterTyped(s, "fail", func(req *echoReq) (*echoResp, error) {
		return nil, errors.New("handler exploded")
	})
	RegisterTyped(s, "slow", func(req *echoReq) (*echoResp, error) {
		time.Sleep(200 * time.Millisecond)
		return &echoResp{Msg: "late"}, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(s.Shutdown)
	return s, ln.Addr().String()
}

func TestRPCEcho(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := CallTyped[echoReq, echoResp](context.Background(), c, "echo", &echoReq{Msg: "hi", N: 41})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "hi" || resp.N != 42 {
		t.Errorf("echo returned %+v", resp)
	}
}

func TestRPCHandlerError(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = CallTyped[echoReq, echoResp](context.Background(), c, "fail", &echoReq{})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if !strings.Contains(re.Msg, "handler exploded") {
		t.Errorf("remote error message = %q", re.Msg)
	}
}

func TestRPCUnknownMethod(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(context.Background(), "nope", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError for unknown method, got %v", err)
	}
}

func TestRPCContextTimeout(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = CallTyped[echoReq, echoResp](ctx, c, "slow", &echoReq{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("want DeadlineExceeded, got %v", err)
	}
	// The connection must remain usable after a timed-out call.
	resp, err := CallTyped[echoReq, echoResp](context.Background(), c, "echo", &echoReq{N: 1})
	if err != nil || resp.N != 2 {
		t.Errorf("connection unusable after timeout: %v %+v", err, resp)
	}
}

func TestRPCConcurrentCalls(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 50
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			resp, err := CallTyped[echoReq, echoResp](context.Background(), c, "echo", &echoReq{N: int64(i)})
			if err == nil && resp.N != int64(i)+1 {
				err = errors.New("response mismatch: concurrent replies crossed")
			}
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRPCServerShutdownFailsPendingCalls(t *testing.T) {
	s, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := CallTyped[echoReq, echoResp](context.Background(), c, "slow", &echoReq{})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	s.Shutdown()
	select {
	case err := <-done:
		if err == nil {
			t.Error("call should fail after server shutdown")
		}
	case <-time.After(2 * time.Second):
		t.Error("pending call did not unblock after shutdown")
	}
	// Subsequent calls fail fast.
	if _, err := c.Call(context.Background(), "echo", nil); err == nil {
		t.Error("call on broken client should fail")
	}
}

func BenchmarkMarshalDevice(b *testing.B) {
	dev := &testDevice{}
	for i := 0; i < 48; i++ {
		dev.Aggs = append(dev.Aggs, testAgg{
			Name: "ae0", Number: int32(i), V4Prefix: "10.0.0.0/31", V6Prefix: "2401:db00::/127",
			Pifs: []testPif{{Name: "et1/1"}, {Name: "et1/2"}},
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(dev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalDevice(b *testing.B) {
	dev := &testDevice{}
	for i := 0; i < 48; i++ {
		dev.Aggs = append(dev.Aggs, testAgg{
			Name: "ae0", Number: int32(i), V4Prefix: "10.0.0.0/31",
			Pifs: []testPif{{Name: "et1/1"}, {Name: "et1/2"}},
		})
	}
	data, err := Marshal(dev)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out testDevice
		if err := Unmarshal(data, &out); err != nil {
			b.Fatal(err)
		}
	}
}
