package core

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Pluggable blast rate control (Config.Controller).
//
// RateController is the interface the blast sender drives, and a registry
// of named factories turns a policy name (carried end to end: CLI flag →
// Config.Controller → REQ policy byte → serving side) into a controller
// instance. "aimd" is the AIMD state machine of adaptive.go.
//
// Contract: a controller's *window and batch decisions* must be a pure
// function of its observation sequence's recovery counters — never of
// WindowObs.Elapsed, the wall clock, or unseeded randomness. The same
// NAK/retransmit/timeout events must produce the same window trajectory on
// the simulator, the V kernel and real UDP; the cross-substrate conformance
// suite pins that for every built-in policy, and the DES contention sweep's
// bit-identical parallelism depends on it. Elapsed (virtual time on the
// simulator, wall time on UDP) may inform *pacing* only: the gap spaces
// packets in time without changing which packets are sent, so timing-aware
// pacing keeps the counter trajectories conformant.

// RateController is the pluggable policy the controlled blast sender drives:
// before each window it asks Window (size in packets), Gap (inter-packet
// pacing) and Batch (syscall batch recommendation), both actuated on
// substrates implementing Datapath; after each window it
// feeds back one WindowObs. Stats summarises the trajectory for
// SendResult.Controller. Controllers are used from the sender's goroutine
// only, like everything else in a protocol engine.
type RateController interface {
	Window() int
	Gap() time.Duration
	Batch() int
	Observe(WindowObs)
	Stats() ControllerStats
}

// ControllerFactory builds a fresh controller for one transfer.
type ControllerFactory func(ControllerConfig) RateController

// Built-in policy names.
const (
	// ControllerAIMD is the PR-4 additive-increase/multiplicative-decrease
	// discipline (adaptive.go): NAK-repaired loss cuts the window to 3/4, a
	// silent timeout quarters it and backs pacing off.
	ControllerAIMD = "aimd"
	// ControllerBBR is the rate-based BBR-flavoured policy (bbr.go):
	// delivery-rate and min-interval estimation drive pacing-gain cycling,
	// and modest random loss does not collapse the window.
	ControllerBBR = "bbr"
	// ControllerAutotune is the probing auto-tuner (autotune.go): a seeded
	// hill-climb perturbs window, batch and pacing online with accept/revert
	// epochs, after Arslan & Kosar's heuristic protocol tuning.
	ControllerAutotune = "autotune"
)

// controllerEntry pairs a factory with its stable wire id (the REQ policy
// byte; 0 for local-only policies that cannot ride a handshake).
type controllerEntry struct {
	id      uint8
	factory ControllerFactory
}

var controllerRegistry = map[string]controllerEntry{}

// RegisterController adds a named policy to the registry. id is the stable
// wire policy byte for the REQ handshake (pass 0 for a local-only policy a
// server cannot be asked for). Registration happens at init time; duplicate
// names or wire ids panic — they are programming errors, not runtime
// conditions.
func RegisterController(name string, id uint8, f ControllerFactory) {
	if name == "" || f == nil {
		panic("core: RegisterController needs a name and a factory")
	}
	if _, dup := controllerRegistry[name]; dup {
		panic(fmt.Sprintf("core: controller %q registered twice", name))
	}
	if id != 0 {
		for other, e := range controllerRegistry {
			if e.id == id {
				panic(fmt.Sprintf("core: controller wire id %d claimed by both %q and %q", id, other, name))
			}
		}
	}
	controllerRegistry[name] = controllerEntry{id: id, factory: f}
}

// ControllerNames returns the registered policy names in deterministic
// (sorted) order — the iteration order CLIs and error messages present.
func ControllerNames() []string {
	names := make([]string, 0, len(controllerRegistry))
	for name := range controllerRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewRateController instantiates a registered policy. Unknown names return
// ErrBadConfig naming the registered alternatives.
func NewRateController(name string, cfg ControllerConfig) (RateController, error) {
	e, ok := controllerRegistry[name]
	if !ok {
		return nil, fmt.Errorf("%w: unknown controller %q (registered: %s)",
			ErrBadConfig, name, strings.Join(ControllerNames(), ", "))
	}
	return e.factory(cfg), nil
}

// ControllerID returns the wire policy byte of a named controller (0 when
// the name is unknown or the policy is local-only).
func ControllerID(name string) uint8 { return controllerRegistry[name].id }

// ControllerNameOf maps a wire policy byte back to its name. Unknown
// non-zero bytes degrade to "aimd": a newer client's policy request is
// served with the baseline controller rather than refused — the byte is a
// preference, not a capability negotiation.
func ControllerNameOf(id uint8) string {
	if id == 0 {
		return ""
	}
	for name, e := range controllerRegistry {
		if e.id == id {
			return name
		}
	}
	return ControllerAIMD
}

// ValidateConfig applies Config defaulting and validation without running a
// transfer: CLIs use it to reject an unknown -controller name (or any other
// bad parameter) before dialing anything.
func ValidateConfig(cfg Config) error {
	_, err := cfg.withDefaults()
	return err
}

func init() {
	RegisterController(ControllerAIMD, 1, func(cfg ControllerConfig) RateController {
		return NewController(cfg)
	})
	RegisterController(ControllerBBR, 2, func(cfg ControllerConfig) RateController {
		return newBBRController(cfg)
	})
	RegisterController(ControllerAutotune, 3, func(cfg ControllerConfig) RateController {
		return newAutotuneController(cfg)
	})
}
