package diy

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/comm"
)

// A rank that skips its ExchangeGhost call (the classic mismatched
// collective) must surface as a watchdog stall dump, not a silent hang —
// and a rank that crashes mid-exchange must unblock its peers through the
// abort path. Both are regression guards for the fault-containment layer
// under the real exchange pattern.
func TestMissingExchangeGhostStalls(t *testing.T) {
	d, err := Decompose(unitDomain(10), 4, true)
	if err != nil {
		t.Fatal(err)
	}
	ps := randomParticles(rand.New(rand.NewSource(31)), 400, 10)
	parts := PartitionParticles(d, ps)

	w := comm.NewWorld(4, comm.WithWatchdog(50*time.Millisecond))
	start := time.Now()
	runErr := w.Run(func(rank int) {
		if rank == 2 {
			return // forgot to join the exchange
		}
		exchangeGhost(w, d, rank, parts[rank], 2)
	})
	if runErr == nil {
		t.Fatal("missing ExchangeGhost did not abort")
	}
	var se *comm.StallError
	if !errors.As(runErr, &se) {
		t.Fatalf("err %v carries no *StallError", runErr)
	}
	if !errors.Is(runErr, comm.ErrWorldAborted) {
		t.Errorf("err %v does not match ErrWorldAborted", runErr)
	}
	if se.Waits[2].State != "exited" {
		t.Errorf("rank 2 state %q, want exited", se.Waits[2].State)
	}
	blocked := false
	for _, rw := range se.Waits {
		if rw.State == "recv" && rw.Peer == 2 {
			blocked = true
		}
	}
	if !blocked {
		t.Errorf("no rank attributed its wait to the missing rank: %v", se)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("stall detection took %v", elapsed)
	}
}

func TestCrashDuringExchangeAborts(t *testing.T) {
	d, err := Decompose(unitDomain(10), 4, true)
	if err != nil {
		t.Fatal(err)
	}
	ps := randomParticles(rand.New(rand.NewSource(32)), 400, 10)
	parts := PartitionParticles(d, ps)

	w := comm.NewWorld(4)
	runErr := w.Run(func(rank int) {
		if rank == 1 {
			panic("simulated crash mid-exchange")
		}
		exchangeGhost(w, d, rank, parts[rank], 2)
	})
	var re *comm.RankError
	if !errors.As(runErr, &re) {
		t.Fatalf("err %v carries no *RankError", runErr)
	}
	if re.Rank != 1 {
		t.Errorf("RankError.Rank = %d, want 1", re.Rank)
	}
}
