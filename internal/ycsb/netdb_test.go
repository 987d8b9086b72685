package ycsb

import (
	"fmt"
	"net"
	"testing"

	"elsm"
	"elsm/internal/core"
	"elsm/internal/netclient"
	"elsm/internal/netsrv"
)

// startNetStore serves an in-memory store over the binary protocol on a
// loopback listener.
func startNetStore(t *testing.T, opts elsm.Options) string {
	t.Helper()
	store, err := elsm.Open(opts)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	srv, err := netsrv.New(store, netsrv.Config{})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	return ln.Addr().String()
}

// TestNetDBWorkloads runs YCSB mixes end to end over the network front
// end: load over the wire, then point reads, updates, inserts, verified
// scans and read-modify-writes through the pipelined protocol.
func TestNetDBWorkloads(t *testing.T) {
	addr := startNetStore(t, elsm.Options{})
	c, err := netclient.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	db := NewNetDB(c)

	const n = 200
	if err := LoadBatched(db, n, 0, 50); err != nil {
		t.Fatalf("load: %v", err)
	}
	// Spot-check the load landed.
	res, err := core.Get(db, Key(0))
	if err != nil || !res.Found {
		t.Fatalf("get after load: %+v err %v", res, err)
	}

	for _, wl := range []Workload{WorkloadA(), WorkloadE(), WorkloadF()} {
		r := NewRunner(db, wl, n, 42)
		st, err := r.RunOps(300)
		if err != nil {
			t.Fatalf("workload %s: %v", wl.Name, err)
		}
		if st.Errors != 0 {
			t.Fatalf("workload %s: %d op errors", wl.Name, st.Errors)
		}
		if st.Ops != 300 {
			t.Fatalf("workload %s: ran %d ops, want 300", wl.Name, st.Ops)
		}
	}
}

// TestNetDBConcurrentClients is the -race smoke: several independent
// connections drive workload A against one server at once, so the whole
// reader/workers/writer pipeline and the client demultiplexer run under
// contention.
func TestNetDBConcurrentClients(t *testing.T) {
	addr := startNetStore(t, elsm.Options{Shards: 2})

	// One connection loads the dataset.
	loader, err := netclient.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	const n = 200
	if err := LoadBatched(NewNetDB(loader), n, 0, 50); err != nil {
		t.Fatalf("load: %v", err)
	}
	loader.Close()

	const clients = 6
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(seed int64) {
			errCh <- func() error {
				c, err := netclient.Dial(addr)
				if err != nil {
					return err
				}
				defer c.Close()
				r := NewRunner(NewNetDB(c), WorkloadA(), n, seed)
				st, err := r.RunOps(200)
				if err != nil {
					return err
				}
				if st.Errors != 0 {
					return fmt.Errorf("client %d: %d op errors", seed, st.Errors)
				}
				return nil
			}()
		}(int64(i))
	}
	for i := 0; i < clients; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}
