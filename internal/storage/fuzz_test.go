package storage

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecords covers the particle-record section snapshot chunks
// are made of. Arbitrary bytes must decode to an error or to exactly the
// records the section has room for; a chunk that decodes re-encodes to
// the same bytes.
func FuzzDecodeRecords(f *testing.F) {
	chunk := encodeRecords(testParticles(5, 9))
	foreign := bytes.Clone(chunk) // the same section under another magic
	foreign[0] ^= 1
	for _, valid := range [][]byte{chunk, foreign} {
		f.Add(valid)
		f.Add(valid[:recHeaderSize])
		f.Add(valid[:len(valid)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if ps, err := decodeRecords(data); err == nil {
			if len(data) != recHeaderSize+recSize*len(ps) {
				t.Fatalf("%d particles decoded from %d bytes", len(ps), len(data))
			}
			if !bytes.Equal(encodeRecords(ps), data) {
				t.Fatal("chunk decode→encode is not the identity")
			}
		}
	})
}
