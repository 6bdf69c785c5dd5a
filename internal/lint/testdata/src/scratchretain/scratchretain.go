// Package scratchretain exercises the scratchretain analyzer: references
// into Scratch-owned buffers must not outlive the borrowing function.
package scratchretain

// Scratch is a per-worker reusable arena; the analyzer treats any type
// with this name as one.
type Scratch struct {
	verts []float64
	loops [][]int
	sw    sweep
}

var published []float64

// Detaching into owned memory is the sanctioned way out.
func detach(s *Scratch) []float64 {
	out := make([]float64, len(s.verts))
	copy(out, s.verts)
	return out
}

// Plain values read out of a scratch carry no reference.
func head(s *Scratch) float64 {
	return s.verts[0]
}

func leakDirect(s *Scratch) []float64 {
	return s.verts // want `returning a reference into a Scratch-owned buffer`
}

func leakResliced(s *Scratch) []float64 {
	return s.verts[:2] // want `returning a reference into a Scratch-owned buffer`
}

func leakAlias(s *Scratch) []float64 {
	v := s.verts
	return v // want `returning a reference into a Scratch-owned buffer`
}

func leakWrapped(s *Scratch) [][]int {
	return [][]int{s.loops[0]} // want `returning a reference into a Scratch-owned buffer`
}

func leakNamed(s *Scratch) (out []float64) {
	out = s.verts
	return // want `bare return publishes out`
}

func leakGlobal(s *Scratch) {
	published = s.verts // want `storing a reference into a Scratch-owned buffer in package-level published`
}

// holder is an ordinary struct: storing scratch-rooted memory into its
// fields smuggles the reference out through the holder.
type holder struct {
	verts []float64
}

// retainer is a sanctioned owner of scratch-lifetime references (a
// session-held pool, a cell under construction); the marker opts it out.
//
//tess:scratchowner
type retainer struct {
	verts []float64
	inner holder
}

func leakField(s *Scratch, h *holder) {
	h.verts = s.verts // want `storing a reference into a Scratch-owned buffer in field verts`
}

func leakFieldAlias(s *Scratch, h *holder) {
	v := s.verts[:1]
	h.verts = v // want `storing a reference into a Scratch-owned buffer in field verts`
}

// A marked owner may retain scratch-rooted references, anywhere along the
// selector chain.
func ownerField(s *Scratch, r *retainer) {
	r.verts = s.verts
	r.inner.verts = s.verts
}

// A scratch rewiring its own storage is the arena working as designed.
func scratchSelfField(s, other *Scratch) {
	other.verts = s.verts[:0]
}

// Stores into memory that is already scratch-rooted cannot extend a
// reference's lifetime.
func scratchInteriorField(s *Scratch) {
	s.loops[0] = s.loops[1]
}

// Plain values through a field store carry no reference.
func fieldValue(s *Scratch, h *holder) {
	h.verts = append([]float64(nil), s.verts[0])
}

// sweep is the working state of the one cell a Scratch is building:
// scratch-lifetime storage that grows by its own appends, so it is a
// sanctioned owner.
//
//tess:scratchowner
type sweep struct {
	verts []float64
}

// cell is what gets handed out; it is not a sanctioned owner.
type cell struct {
	verts []float64
}

func (w *sweep) add(v float64) { w.verts = append(w.verts, v) }

// finishCopy is the sanctioned way out of a sweep: the cell gets storage of
// its own.
func (w *sweep) finishCopy(c *cell) {
	out := make([]float64, len(w.verts))
	copy(out, w.verts)
	c.verts = out
}

// finishAliasing hands the cell the sweep's own buffer.
func (w *sweep) finishAliasing(c *cell) { c.verts = w.verts }

// The sweep's own appends, reached through the scratch, are the arena
// working as designed, and so is a finish that copies.
func sweepOwnAppend(s *Scratch, c *cell) {
	s.sw.add(s.verts[0])
	s.sw.finishCopy(c)
}

// A finished cell that still aliases the sweep buffers is overwritten by
// the next cell through the same scratch, whether the alias is stored
// directly or by a finishing helper.
func leakFinishedCell(s *Scratch, c *cell) {
	c.verts = s.sw.verts[:2] // want `storing a reference into a Scratch-owned buffer in field verts`
}

func leakFinishHelper(s *Scratch, c *cell) {
	s.sw.finishAliasing(c) // want `passing a reference into a Scratch-owned buffer to finishAliasing, which retains it`
}
