package service

import (
	"context"
	"fmt"
	"sync"

	"github.com/robotron-net/robotron/internal/thriftlite"
)

// ctxType aliases context.Context for the generated-style client wrappers.
type ctxType = context.Context

// Client is a region-local FBNet API client: reads go to the region's read
// service replicas (failing over to the next local replica, then to other
// regions' replicas); writes are forwarded to the master region's write
// service (§4.3.3).
type Client struct {
	region     string
	localRead  []string
	remoteRead []string
	writeAddr  string

	mu    sync.Mutex
	conns map[string]*thriftlite.Client
}

// NewClient builds a client for one region of a deployment.
func NewClient(d *Deployment, region string) *Client {
	return &Client{
		region:     region,
		localRead:  d.ReadAddrs(region),
		remoteRead: d.AllReadAddrs(region),
		writeAddr:  d.WriteAddr(),
		conns:      make(map[string]*thriftlite.Client),
	}
}

// RefreshTopology re-reads service addresses from the deployment (after a
// failover or replica replacement).
func (c *Client) RefreshTopology(d *Deployment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.localRead = d.ReadAddrs(c.region)
	c.remoteRead = d.AllReadAddrs(c.region)
	c.writeAddr = d.WriteAddr()
	for addr, conn := range c.conns {
		conn.Close()
		delete(c.conns, addr)
	}
}

func (c *Client) conn(addr string) (*thriftlite.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if conn, ok := c.conns[addr]; ok {
		return conn, nil
	}
	conn, err := thriftlite.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.conns[addr] = conn
	return conn, nil
}

func (c *Client) dropConn(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if conn, ok := c.conns[addr]; ok {
		conn.Close()
		delete(c.conns, addr)
	}
}

// Result is one decoded read-API row: requested field path -> value (or
// []any for multi-valued paths).
type Result struct {
	ID     int64
	Fields map[string]any
}

// Get executes the read API against the nearest healthy replica: local
// replicas first, then other regions ("if they are also down, requests
// are rerouted to the nearest live service replicas in a neighboring data
// center").
func (c *Client) Get(ctx context.Context, model string, fields []string, q *WireQuery) ([]Result, error) {
	return c.GetLimit(ctx, model, fields, q, 0)
}

// GetLimit is Get with a server-side cap on the number of returned
// objects (0 = unlimited).
func (c *Client) GetLimit(ctx context.Context, model string, fields []string, q *WireQuery, limit int64) ([]Result, error) {
	req := &GetRequest{Model: model, Fields: fields, Query: q, Limit: limit}
	c.mu.Lock()
	candidates := append(append([]string(nil), c.localRead...), c.remoteRead...)
	c.mu.Unlock()
	var lastErr error
	for _, addr := range candidates {
		conn, err := c.conn(addr)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := thriftlite.CallTyped[GetRequest, GetResponse](ctx, conn, "fbnet.get", req)
		if err != nil {
			// Application errors (bad model/query) are authoritative;
			// transport errors trigger failover to the next replica.
			if _, isRemote := err.(*thriftlite.RemoteError); isRemote {
				return nil, err
			}
			c.dropConn(addr)
			lastErr = err
			continue
		}
		return decodeResults(resp), nil
	}
	return nil, fmt.Errorf("service: no reachable read replica: %w", lastErr)
}

func decodeResults(resp *GetResponse) []Result {
	out := make([]Result, 0, len(resp.Results))
	for _, wr := range resp.Results {
		r := Result{ID: wr.ID, Fields: make(map[string]any, len(wr.Fields))}
		for _, f := range wr.Fields {
			if f.Multi {
				vals := make([]any, len(f.Vals))
				for i, v := range f.Vals {
					vals[i] = v.value()
				}
				r.Fields[f.Path] = vals
			} else if len(f.Vals) > 0 {
				r.Fields[f.Path] = f.Vals[0].value()
			} else {
				r.Fields[f.Path] = nil
			}
		}
		out = append(out, r)
	}
	return out
}

// Write forwards a transactional write batch to the master region.
func (c *Client) Write(ctx context.Context, ops []WriteOp) (*WriteResponse, error) {
	c.mu.Lock()
	addr := c.writeAddr
	c.mu.Unlock()
	conn, err := c.conn(addr)
	if err != nil {
		return nil, fmt.Errorf("service: write service unreachable: %w", err)
	}
	resp, err := thriftlite.CallTyped[WriteRequest, WriteResponse](ctx, conn, "fbnet.write", &WriteRequest{Ops: ops})
	if err != nil {
		if _, isRemote := err.(*thriftlite.RemoteError); !isRemote {
			c.dropConn(addr)
		}
		return nil, err
	}
	return resp, nil
}

// CreateOp builds a create write op.
func CreateOp(model string, fields map[string]any) WriteOp {
	return WriteOp{Action: "create", Model: model, Fields: toWireFields(fields)}
}

func toWireFields(fields map[string]any) []WireField {
	out := make([]WireField, 0, len(fields))
	for k, v := range fields {
		out = append(out, WireField{Path: k, Vals: []WireValue{toWireValue(v)}})
	}
	return out
}

// Ping health-checks one local read replica, returning its name.
func (c *Client) Ping(ctx context.Context) (string, error) {
	c.mu.Lock()
	candidates := append(append([]string(nil), c.localRead...), c.remoteRead...)
	c.mu.Unlock()
	var lastErr error
	for _, addr := range candidates {
		conn, err := c.conn(addr)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := thriftlite.CallTyped[PingRequest, PingResponse](ctx, conn, "fbnet.ping", &PingRequest{Echo: "hi"})
		if err != nil {
			c.dropConn(addr)
			lastErr = err
			continue
		}
		return resp.Replica, nil
	}
	return "", fmt.Errorf("service: no reachable replica: %w", lastErr)
}

// Close tears down all connections.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for addr, conn := range c.conns {
		conn.Close()
		delete(c.conns, addr)
	}
}
