package session

import (
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/transport"
	"blastlan/internal/wire"
)

// fakeClient is a transport.Client whose Recv waits out its timeout (or
// blocks forever) until aborted — the shape of a stripe session wedged on
// a silent server. Timeouts satisfy core.IsTimeout, so a protocol engine
// retries against it indefinitely, exactly like a real endpoint.
type fakeClient struct {
	abort chan struct{}
	once  sync.Once
}

func newFakeClient() *fakeClient { return &fakeClient{abort: make(chan struct{})} }

func (c *fakeClient) Now() time.Duration             { return 0 }
func (c *fakeClient) Compute(time.Duration)          {}
func (c *fakeClient) Send(*wire.Packet) error        { return nil }
func (c *fakeClient) SendAsync(p *wire.Packet) error { return c.Send(p) }

func (c *fakeClient) Recv(timeout time.Duration) (*wire.Packet, error) {
	if timeout < 0 {
		<-c.abort
		return nil, errClientAborted
	}
	select {
	case <-c.abort:
		return nil, errClientAborted
	case <-time.After(timeout):
		return nil, os.ErrDeadlineExceeded
	}
}

func (c *fakeClient) Close() error { c.Abort(); return nil }
func (c *fakeClient) Abort()       { c.once.Do(func() { close(c.abort) }) }

var errClientAborted = errors.New("fake client aborted")

// failFastClient fails every protocol operation with err, like an endpoint
// whose server rejected it outright.
type failFastClient struct {
	transport.Client
	err error
}

func (c *failFastClient) Send(*wire.Packet) error                  { return c.err }
func (c *failFastClient) SendAsync(*wire.Packet) error             { return c.err }
func (c *failFastClient) Recv(time.Duration) (*wire.Packet, error) { return nil, c.err }

// fakeFabric fans goroutine bodies over fakeClients; stripe failAt gets a
// client that fails instantly with failErr, every sibling one that blocks
// until aborted.
type fakeFabric struct {
	failAt  int
	failErr error
}

func (f *fakeFabric) Fan(n int, body func(i int, c transport.Client) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var c transport.Client = newFakeClient()
			if i == f.failAt {
				c = &failFastClient{Client: c, err: f.failErr}
			}
			defer c.Close()
			errs[i] = body(i, c)
		}(i)
	}
	wg.Wait()
	return errs
}

// TestPullStripedCancelsSiblings pins the partial-failure contract: when
// one stripe fails, its siblings — wedged in endless REQ retries against a
// silent server — are aborted promptly, and the returned error names the
// stripe that failed.
func TestPullStripedCancelsSiblings(t *testing.T) {
	boom := errors.New("stripe exploded")
	cfg := core.Config{
		Bytes:          64000,
		ChunkSize:      1000,
		RetransTimeout: 100 * time.Millisecond,
		// Without cancellation the blocked siblings would retry their REQs
		// for MaxAttempts·Tr = 100 s each; the 2 s bound below is only
		// passable because the failure aborts them.
		MaxAttempts: 1000,
	}

	start := time.Now()
	done := make(chan struct{})
	var res StripedResult
	var err error
	go func() {
		defer close(done)
		res, err = PullStriped(&fakeFabric{failAt: 2, failErr: boom}, cfg, StripeOptions{Streams: 4})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("PullStriped never returned: blocked siblings were not cancelled")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v; siblings were not aborted promptly", elapsed)
	}
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the stripe failure", err)
	}
	if !strings.Contains(err.Error(), "stripe 2 of 4") {
		t.Errorf("error %q does not name the failing stripe", err)
	}
	if len(res.Stripes) != 4 {
		t.Fatalf("partial result reports %d stripes, want 4", len(res.Stripes))
	}
	if res.Stripes[2].Err == nil {
		t.Error("failing stripe's outcome lost its error")
	}
	for i, s := range res.Stripes {
		if s.Stripe.Bytes == 0 {
			t.Errorf("stripe %d plan missing from the partial result", i)
		}
	}
}

// TestPullStripedLateRegistrantBails pins the register-after-failure path:
// a stripe body that starts after a sibling has already failed must be
// told to bail before opening a doomed session, and the failing stripe
// itself must not be self-aborted.
func TestPullStripedLateRegistrantBails(t *testing.T) {
	boom := errors.New("early failure")
	cancel := &stripeCancel{clients: make([]transport.Client, 3)}
	c0, c1 := newFakeClient(), newFakeClient()
	if cancel.register(0, c0) {
		t.Fatal("first registrant told to bail")
	}
	if cancel.register(1, c1) {
		t.Fatal("second registrant told to bail")
	}
	cancel.fail(0, boom)
	select {
	case <-c1.abort:
	default:
		t.Fatal("registered sibling was not aborted")
	}
	select {
	case <-c0.abort:
		t.Fatal("the failing stripe must not be self-aborted")
	default:
	}
	if !cancel.register(2, newFakeClient()) {
		t.Fatal("late registrant not told a sibling already failed")
	}
	if i, err := cancel.first(); i != 0 || !errors.Is(err, boom) {
		t.Fatalf("first() = %d, %v", i, err)
	}
	// A later failure must not displace the first.
	cancel.fail(1, errors.New("secondary"))
	if i, err := cancel.first(); i != 0 || !errors.Is(err, boom) {
		t.Fatalf("first failure displaced: first() = %d, %v", i, err)
	}
}
