package jobd

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"strings"

	tess "repro"
)

// canonicalMesh merges a step's per-block meshes into the
// decomposition-independent canonical mesh and returns its encoding.
// Because the canonical merge is byte-identical across block counts and
// decompositions, the bytes a client receives from a daemon job equal
// those of a direct single-client Session run over the same particles —
// the contract the e2e suite pins. Only fresh memory derived from the
// loaned Output leaves this function, and exactly as much as the bytes:
// Encode's buffer has room to spare and its result starts inside it, so
// the event log keeps a copy, and retained_bytes counts what is held.
func canonicalMesh(out *tess.Output, cfg tess.Config) ([]byte, error) {
	merged, err := tess.MergeCanonical(out.Meshes, cfg.Domain, cfg.Periodic)
	if err != nil {
		return nil, fmt.Errorf("jobd: canonical merge: %w", err)
	}
	enc, err := merged.Encode()
	if err != nil {
		return nil, fmt.Errorf("jobd: mesh encode: %w", err)
	}
	return append(make([]byte, 0, len(enc)), enc...), nil
}

// meshB64 is the mesh_b64 text of raw mesh bytes ("" for none), encoded
// straight into the string's own buffer: EncodeToString would fill a byte
// slice and then copy it.
func meshB64(raw []byte) string {
	if len(raw) == 0 {
		return ""
	}
	var b64 strings.Builder
	b64.Grow(base64.StdEncoding.EncodedLen(len(raw)))
	w := base64.NewEncoder(base64.StdEncoding, &b64)
	w.Write(raw) // a strings.Builder cannot fail
	w.Close()
	return b64.String()
}

// densityDigest condenses one step's density result into the wire digest.
// grid is the already-encoded (detached) grid whose SHA-256 anchors the
// decomposition-independence check; every other field is a scalar copy, so
// nothing here aliases the loaned Result.
func densityDigest(res *tess.DensityResult, grid []byte) *DensityDigest {
	sum := sha256.Sum256(grid)
	return &DensityDigest{
		GridN:        res.GridN,
		Digest:       hex.EncodeToString(sum[:]),
		Mean:         res.Stats.Mean,
		Min:          res.Stats.Min,
		Max:          res.Stats.Max,
		VoidFrac:     res.Stats.VoidFrac,
		GridMass:     res.Stats.GridMass,
		TracerMass:   res.Stats.TracerMass,
		Outside:      int64(res.Sample.Outside),
		Degenerate:   int64(res.Sample.Degenerate),
		SpectrumBins: len(res.Spectrum),
	}
}

// obsDigest condenses a step's observability snapshot into the wire
// digest. Counter values are copied (the digest outlives the step), and
// iteration follows the snapshot's sorted CounterNames so the digest is
// deterministic.
func obsDigest(s *tess.ObsSnapshot) *ObsDigest {
	counters := make(map[string][]int64, len(s.CounterNames))
	for _, name := range s.CounterNames {
		vals := make([]int64, len(s.Counters[name]))
		copy(vals, s.Counters[name])
		counters[name] = vals
	}
	return &ObsDigest{
		Counters:         counters,
		ComputeImbalance: s.ComputeImbalance,
		SentBytes:        s.TotalSentBytes,
		RecvdBytes:       s.TotalRecvdBytes,
	}
}
