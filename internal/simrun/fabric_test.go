package simrun

import (
	"fmt"
	"time"

	"blastlan/internal/sim"
	"blastlan/internal/transport"
)

// simFabric implements transport.Fabric on the simulator: Fan gives every body
// its own client station and process, all talking to one serving station.
// Stations are created in index order before any body runs, so the fan-out
// is deterministic at any GOMAXPROCS.
type simFabric struct {
	Net    *sim.Network
	Server *sim.Station
	// P is the orchestrating process; Fan blocks it until every body has
	// returned.
	P *sim.Proc
	// Name prefixes client station and process names (default "client").
	Name string
	// Prepare, when non-nil, configures client i's freshly created station
	// before its session starts — the per-client adversary hook.
	Prepare func(i int, st *sim.Station) error
}

// Now exposes virtual time, so shared orchestrators measure elapsed in the
// substrate's own clock.
func (f *simFabric) Now() time.Duration { return f.Net.K.Now() }

// Fan runs body(i, client_i) for i in [0, n) as concurrent simulated
// processes and returns when all have finished.
func (f *simFabric) Fan(n int, body func(i int, c transport.Client) error) []error {
	errs := make([]error, n)
	prefix := f.Name
	if prefix == "" {
		prefix = "client"
	}
	k := f.Net.K
	var sig sim.Signal
	done := 0
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		st := f.Net.AddStation(name)
		if f.Prepare != nil {
			if err := f.Prepare(i, st); err != nil {
				// Still runs through the body (see transport.Fabric), so
				// the failure can cancel sibling sessions promptly.
				errs[i] = body(i, transport.FailedClient(err))
				done++
				continue
			}
		}
		i, st := i, st
		k.Go(name, func(p *sim.Proc) {
			c := &simClient{Endpoint: sim.NewEndpoint(p, st, f.Server)}
			errs[i] = body(i, c)
			st.Close()
			done++
			sig.Broadcast(k)
		})
	}
	f.P.WaitCond(&sig, -1, func() bool { return done == n })
	return errs
}

// simClient is a dialed client-side conn (transport.Client): a fresh
// station's endpoint plus socket-style teardown, so the shared stripe
// orchestrator can abort simulated sessions exactly as it closes UDP
// sockets.
type simClient struct {
	*sim.Endpoint
}

// Close closes the conn's station; a blocked engine unblocks with
// net.ErrClosed.
func (c *simClient) Close() error {
	c.St.Close()
	return nil
}

// Abort is Close from a sibling's thread of control. Under handoff
// scheduling only one process runs at a time, so the cross-process call is
// safe by construction.
func (c *simClient) Abort() { c.St.Close() }
