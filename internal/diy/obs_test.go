package diy

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Conservation law of the exchange layer: every byte posted by a source
// rank is consumed by its destination — per pair, not just in total — and
// the collective write obeys the same accounting. A violation means a
// message was dropped, duplicated, or misattributed to the wrong rank.
func TestExchangeByteConservation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		blocks int
		ghost  float64
	}{
		{"2-blocks", 2, 2},
		{"8-blocks", 8, 2},
		{"8-blocks-wide-ghost", 8, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Decompose(unitDomain(10), tc.blocks, true)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(31))
			ps := randomParticles(rng, 600, 10)
			parts := PartitionParticles(d, ps)

			w := comm.NewWorld(tc.blocks)
			rec := obs.NewRecorder(tc.blocks)
			w.SetRecorder(rec)
			path := filepath.Join(t.TempDir(), "out.bin")
			var ghostsRecvd int64
			var mu sync.Mutex
			w.Run(func(rank int) {
				g := exchangeGhost(w, d, rank, parts[rank], tc.ghost)
				mu.Lock()
				ghostsRecvd += int64(len(g))
				mu.Unlock()
				payload := make([]byte, 100*(rank+1))
				if _, err := CollectiveWrite(w, rank, path, payload); err != nil {
					t.Errorf("rank %d write: %v", rank, err)
				}
			})

			s := rec.Snapshot()
			if s.TotalSentMsgs == 0 {
				t.Fatal("exchange recorded no messages")
			}
			if s.TotalSentMsgs != s.TotalRecvdMsgs {
				t.Errorf("messages: sent %d, received %d", s.TotalSentMsgs, s.TotalRecvdMsgs)
			}
			if s.TotalSentBytes != s.TotalRecvdBytes {
				t.Errorf("bytes: sent %d, received %d", s.TotalSentBytes, s.TotalRecvdBytes)
			}
			for src := 0; src < tc.blocks; src++ {
				for dst := 0; dst < tc.blocks; dst++ {
					if s.SendBytes[src][dst] != s.RecvBytes[dst][src] {
						t.Errorf("pair (%d -> %d): posted %d bytes, consumed %d",
							src, dst, s.SendBytes[src][dst], s.RecvBytes[dst][src])
					}
					if s.SendMsgs[src][dst] != s.RecvMsgs[dst][src] {
						t.Errorf("pair (%d -> %d): posted %d msgs, consumed %d",
							src, dst, s.SendMsgs[src][dst], s.RecvMsgs[dst][src])
					}
				}
			}
			// With a multi-block periodic decomposition every rank has
			// neighbors, so every rank must have participated.
			if tc.blocks > 1 {
				for _, m := range s.PerRank {
					if m.SentMsgs == 0 {
						t.Errorf("rank %d sent nothing during the exchange", m.Rank)
					}
				}
			}
			// The ghost traffic itself must be visible in the byte totals:
			// each ghost particle is 32 bytes (ID + 3 coordinates) on the
			// wire, and the exchange also moves per-neighbor counts, so the
			// recorded volume must be at least the ghost payload.
			if s.TotalSentBytes < ghostsRecvd*32 {
				t.Errorf("recorded %d bytes for %d ghost particles (< %d payload bytes)",
					s.TotalSentBytes, ghostsRecvd, ghostsRecvd*32)
			}
		})
	}
}
