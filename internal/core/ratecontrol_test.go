package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"blastlan/internal/wire"
)

// The policy table's order is deterministic (sorted), repeatable, and
// contains exactly the built-in policies.
func TestControllerRegistryDeterministicOrder(t *testing.T) {
	want := []string{ControllerAIMD, ControllerAutotune}
	first := ControllerNames()
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("ControllerNames() = %v, want %v", first, want)
	}
	for i := 0; i < 10; i++ {
		if got := ControllerNames(); !reflect.DeepEqual(got, first) {
			t.Fatalf("iteration %d: ControllerNames() = %v, want stable %v", i, got, first)
		}
	}
}

// An unknown controller name is rejected by ValidateConfig with an error
// that names the offender and the registered alternatives.
func TestUnknownControllerRejected(t *testing.T) {
	err := ValidateConfig(Config{Bytes: 64 << 10, Controller: "warp"})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown controller: err = %v, want ErrBadConfig", err)
	}
	if !strings.Contains(err.Error(), `"warp"`) || !strings.Contains(err.Error(), ControllerAutotune) {
		t.Errorf("error should name the offender and the registered policies: %v", err)
	}
	for _, name := range ControllerNames() {
		if err := ValidateConfig(Config{Bytes: 64 << 10, Controller: name}); err != nil {
			t.Errorf("registered controller %q rejected: %v", name, err)
		}
	}
}

// The policy selector survives the REQ handshake round trip: name → wire id
// → name.
func TestControllerPolicyHandshakeRoundTrip(t *testing.T) {
	for _, name := range ControllerNames() {
		r := ReqOf(Config{Bytes: 1 << 20, Controller: name}, false)
		if r.Adaptive == 0 {
			t.Fatalf("policy %q encoded as 0", name)
		}
		dec, err := wire.DecodeReq(wire.EncodeReq(r))
		if err != nil {
			t.Fatal(err)
		}
		got := ConfigOf(7, dec)
		if got.Controller != name {
			t.Errorf("policy %q round-tripped as Controller=%q", name, got.Controller)
		}
	}
	// A policy id this build does not know degrades to aimd, never a refusal.
	if got := ConfigOf(7, wire.Req{Bytes: 1 << 20, Adaptive: 29}); got.Controller != ControllerAIMD {
		t.Errorf("unknown policy id resolved to %q, want aimd", got.Controller)
	}
	// Id 2 is retired: it is served as any unknown id is.
	if got := ControllerNameOf(2); got != ControllerAIMD {
		t.Errorf("retired policy id 2 resolved to %q, want aimd", got)
	}
	if got := ConfigOf(7, wire.Req{Bytes: 1 << 20}); got.Controller != "" {
		t.Errorf("policy 0 resolved to %q, want fixed schedule", got.Controller)
	}
}

// Every built-in policy's Stats() round-trips through SendResult.Controller:
// a controlled loopback transfer surfaces the trajectory with the policy
// name attached.
func TestControllerStatsRoundTripThroughSendResult(t *testing.T) {
	for _, name := range ControllerNames() {
		t.Run(name, func(t *testing.T) {
			a, b := newLoopEnvPair()
			payload := SeededPayload(3, 120_000, 1000)
			cfg := Config{
				TransferID:     61,
				Bytes:          len(payload),
				ChunkSize:      1000,
				Controller:     name,
				Protocol:       Blast,
				Strategy:       GoBackN,
				RetransTimeout: 100 * time.Millisecond,
				MaxAttempts:    20,
				Payload:        payload,
			}
			done := make(chan SendResult, 1)
			errs := make(chan error, 1)
			go func() {
				res, err := RunSender(a, cfg)
				done <- res
				errs <- err
			}()
			rcfg := cfg
			rcfg.Payload = nil
			if _, err := RunReceiver(b, rcfg); err != nil {
				t.Fatalf("receiver: %v", err)
			}
			res, err := <-done, <-errs
			if err != nil {
				t.Fatalf("sender: %v", err)
			}
			if res.Controller == nil {
				t.Fatal("SendResult.Controller is nil for a controlled transfer")
			}
			st := res.Controller
			if st.Policy != name {
				t.Errorf("Stats().Policy = %q, want %q", st.Policy, name)
			}
			if st.Windows == 0 || st.FinalWindow == 0 {
				t.Errorf("empty trajectory: %+v", st)
			}
		})
	}
}
