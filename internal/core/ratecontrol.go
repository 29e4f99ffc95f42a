package core

import (
	"fmt"
	"strings"
)

// Pluggable blast rate control (Config.Controller).
//
// RateController is the interface the blast sender drives, and a fixed
// table of the built-in policies turns a policy name (carried end to end:
// CLI flag → Config.Controller → REQ policy byte → serving side) into a
// controller instance. "aimd" is the AIMD state machine of aimd.go.
//
// Contract: a controller decides the window size and nothing else, as a
// pure function of its observation sequence's recovery counters — never of
// the wall clock or unseeded randomness. The same NAK/retransmit/timeout
// events must produce the same window trajectory on the simulator, the V
// kernel and real UDP; the cross-substrate conformance suite pins that for
// every built-in policy, and the DES contention sweep's bit-identical
// parallelism depends on it. The window is the only rate control: nothing
// spaces packets in time.

// RateController is the pluggable policy the blast sender drives:
// before each window it asks Window (size in packets); after each window it
// feeds back one WindowObs. Stats summarises the trajectory for
// SendResult.Controller. Controllers are used from the sender's goroutine
// only, like everything else in a protocol engine.
type RateController interface {
	Window() int
	Observe(WindowObs)
	Stats() ControllerStats
}

// Built-in policy names.
const (
	// ControllerAIMD is the additive-increase/multiplicative-decrease
	// discipline (aimd.go): a sparse repair holds the window, heavy
	// NAK-repaired loss cuts it to 3/4, and heavy loss with a silent
	// timeout quarters it.
	ControllerAIMD = "aimd"
	// ControllerAutotune is the probing auto-tuner (autotune.go): a seeded
	// hill-climb perturbs the window online with accept/revert epochs,
	// after Arslan & Kosar's heuristic protocol tuning.
	ControllerAutotune = "autotune"
)

// controllers is the fixed policy table, in ControllerNames order: each
// built-in policy's name, its stable wire id (the REQ policy byte) and the
// constructor of a fresh controller for one transfer. Id 2 is retired, never
// reused: it named a policy since deleted, and like any unknown id it now
// degrades to aimd.
var controllers = [...]struct {
	name  string
	id    uint8
	build func(ControllerConfig) RateController
}{
	{ControllerAIMD, 1, func(cfg ControllerConfig) RateController { return NewController(cfg) }},
	{ControllerAutotune, 3, func(cfg ControllerConfig) RateController { return newAutotuneController(cfg) }},
}

// controllerIndex returns name's row of the policy table, or -1.
func controllerIndex(name string) int {
	for i := range controllers {
		if controllers[i].name == name {
			return i
		}
	}
	return -1
}

// unknownController is the ErrBadConfig for a policy name outside the table,
// naming the built-in alternatives.
func unknownController(name string) error {
	return fmt.Errorf("%w: unknown controller %q (registered: %s)",
		ErrBadConfig, name, strings.Join(ControllerNames(), ", "))
}

// ControllerNames returns the built-in policy names in deterministic
// (sorted) order — the iteration order CLIs and error messages present.
func ControllerNames() []string {
	names := make([]string, len(controllers))
	for i, p := range controllers {
		names[i] = p.name
	}
	return names
}

// NewRateController instantiates a built-in policy. Unknown names return
// ErrBadConfig naming the built-in alternatives.
func NewRateController(name string, cfg ControllerConfig) (RateController, error) {
	i := controllerIndex(name)
	if i < 0 {
		return nil, unknownController(name)
	}
	return controllers[i].build(cfg), nil
}

// ControllerID returns the wire policy byte of a named controller (0 when
// the name is unknown).
func ControllerID(name string) uint8 {
	if i := controllerIndex(name); i >= 0 {
		return controllers[i].id
	}
	return 0
}

// ControllerNameOf maps a wire policy byte back to its name. Unknown
// non-zero bytes degrade to "aimd": a newer client's policy request is
// served with the baseline controller rather than refused — the byte is a
// preference, not a capability negotiation.
func ControllerNameOf(id uint8) string {
	if id == 0 {
		return ""
	}
	for _, p := range controllers {
		if p.id == id {
			return p.name
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
