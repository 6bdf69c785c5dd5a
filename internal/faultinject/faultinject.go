// Package faultinject is a deterministic, seeded chaos layer for the
// comm/core stack: per-rank compute slowdowns, per-message delivery
// delays, and rank crash-at-step-N, all derived from a single seed so a
// failing schedule can be replayed exactly.
//
// The layer is built for proving graceful degradation, not for load
// testing: injected delays stretch the schedule without changing any
// computed value (fault-free and delay-only runs are byte-identical), and
// an injected crash must surface as a structured error from the driver —
// never a hang, never a process exit. A nil *Injector is the disabled
// layer and costs one pointer test per hook, like the observability
// recorder.
//
// Threading model: Checkpoint(rank, …) and SendDelay(src, …) touch only
// the slot of the rank they name, and each rank is one goroutine
// (comm.World.Run), so the per-rank counters need no locks — the same
// single-writer sharding the obs recorder uses.
package faultinject

import (
	"fmt"
	"time"
)

// Plan is the declarative description of the faults to inject. The zero
// value injects nothing.
type Plan struct {
	// Seed drives every pseudo-random choice; runs with equal plans are
	// identical.
	Seed int64
	// CrashRank and CrashStep select a deterministic crash: rank
	// CrashRank panics with a *Crash when it reaches its CrashStep-th
	// checkpoint (steps count from 1). CrashStep <= 0 disables crashing.
	CrashRank int
	CrashStep int
	// ComputeDelayMax, when positive, sleeps each rank at every
	// checkpoint for a deterministic per-(rank, step) duration in
	// [0, ComputeDelayMax) — the stand-in for a rank slowed by its share
	// of a clustered region.
	ComputeDelayMax time.Duration
	// SendDelayMax, when positive, delays each message's delivery by a
	// deterministic per-(src, message-index) duration in [0, SendDelayMax)
	// — the stand-in for a congested link.
	SendDelayMax time.Duration
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	return p.CrashStep > 0 || p.ComputeDelayMax > 0 || p.SendDelayMax > 0
}

// Crash is the panic value of an injected rank crash; the containment
// layer surfaces it inside a comm.RankError.
type Crash struct {
	Rank int
	Step int
	// Site names the pipeline checkpoint that tripped the crash.
	Site string
}

func (c *Crash) Error() string {
	return fmt.Sprintf("faultinject: rank %d crashed at step %d (%s)", c.Rank, c.Step, c.Site)
}

// Injector is a materialized Plan for a run over a fixed number of ranks.
type Injector struct {
	plan  Plan
	steps []slot // per-rank checkpoint counter
	msgs  []slot // per-rank outgoing-message counter
}

// slot pads each rank's counter onto its own cache line (counters sit on
// the exchange hot path when delays are armed).
type slot struct {
	n int64
	_ [56]byte
}

// New materializes plan for a run over ranks ranks.
func New(plan Plan, ranks int) *Injector {
	if ranks <= 0 {
		panic(fmt.Sprintf("faultinject: ranks %d", ranks))
	}
	return &Injector{plan: plan, steps: make([]slot, ranks), msgs: make([]slot, ranks)}
}

// Checkpoint marks rank passing one pipeline step: it applies the plan's
// compute slowdown for this (rank, step) and panics with a *Crash when
// the crash schedule names it. site labels the checkpoint in the crash
// diagnostic. Safe (and free) on a nil Injector.
func (in *Injector) Checkpoint(rank int, site string) {
	if in == nil {
		return
	}
	in.steps[rank].n++
	step := in.steps[rank].n
	if in.plan.ComputeDelayMax > 0 {
		time.Sleep(in.draw(uint64(rank), uint64(step), 0x636f6d70, in.plan.ComputeDelayMax))
	}
	if in.plan.CrashStep > 0 && rank == in.plan.CrashRank && step == int64(in.plan.CrashStep) {
		panic(&Crash{Rank: rank, Step: int(step), Site: site})
	}
}

// SendDelay is the comm.WithSendDelay hook: a deterministic delivery
// delay for the next message src posts. dst and tag are accepted for
// signature compatibility; determinism keys on (seed, src, message
// index) so the delay sequence does not depend on map-order-free but
// schedule-dependent destination interleavings. Safe on a nil Injector.
func (in *Injector) SendDelay(src, dst, tag int) time.Duration {
	if in == nil || in.plan.SendDelayMax <= 0 {
		return 0
	}
	in.msgs[src].n++
	return in.draw(uint64(src), uint64(in.msgs[src].n), 0x73656e64, in.plan.SendDelayMax)
}

// draw maps (seed, a, b, domain) to a duration in [0, max) via a
// splitmix64-style hash: stateless, so equal plans give equal schedules.
func (in *Injector) draw(a, b, domain uint64, max time.Duration) time.Duration {
	x := uint64(in.plan.Seed) ^ domain ^ a<<32 ^ b
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return time.Duration(x % uint64(max))
}
