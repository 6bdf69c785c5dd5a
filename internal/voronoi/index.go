package voronoi

import (
	"math"

	"repro/internal/geom"
)

// Index is a uniform-grid spatial index over a point set, supporting
// traversal of points in expanding Chebyshev shells around a query site.
// Combined with the security-radius criterion this yields the
// nearest-first neighbor stream that drives cell clipping.
type Index struct {
	pts    []geom.Vec3
	ids    []int64
	bounds geom.Box
	dims   [3]int
	h      geom.Vec3 // cell size per axis
	// The buckets in compressed-row form: grid cell b holds the point
	// indices items[start[b]:start[b+1]], in point order.
	start []int32
	items []int32
	// cellOf is Rebuild's scratch: the grid cell of each point.
	cellOf []int32
	// slack is an absolute bound, generous by three orders of magnitude, on
	// how far outside its grid cell's nominal box rounding in cellCoords can
	// leave a point; visitShell's box bound gives it away.
	slack float64
}

// NewIndex builds a grid index over the given points with roughly
// targetPerCell points per grid cell (pass 0 for the default of 4). IDs are
// parallel to pts and are reported back by Shell.
func NewIndex(pts []geom.Vec3, ids []int64, targetPerCell float64) *Index {
	ix := &Index{}
	ix.Rebuild(pts, ids, targetPerCell)
	return ix
}

// Rebuild re-derives the index over a new point set in place, reusing the
// bucket arrays of previous builds: the grid geometry, bucket contents,
// and traversal order are identical in every respect to a fresh
// NewIndex(pts, ids, targetPerCell), but at steady state (point counts and
// spatial extent stable across rebuilds, as for the successive snapshots
// of an in situ run) no memory is allocated. The zero Index is a valid
// receiver.
func (ix *Index) Rebuild(pts []geom.Vec3, ids []int64, targetPerCell float64) {
	if len(pts) != len(ids) {
		panic("voronoi: pts and ids length mismatch")
	}
	ix.pts, ix.ids = pts, ids
	if len(pts) == 0 {
		ix.dims = [3]int{1, 1, 1}
		ix.bounds = geom.NewBox(geom.V(0, 0, 0), geom.V(1, 1, 1))
		ix.h = geom.V(1, 1, 1)
		ix.slack = 0
		ix.fillBuckets(1)
		return
	}
	if targetPerCell <= 0 {
		targetPerCell = 4
	}
	ix.bounds = geom.BoundingBox(pts).Expand(1e-9)
	size := ix.bounds.Size()
	// Choose cells so that the expected occupancy is ~targetPerCell.
	n := float64(len(pts))
	vol := math.Max(size.X*size.Y*size.Z, 1e-300)
	cell := math.Cbrt(vol * targetPerCell / n)
	for a := 0; a < 3; a++ {
		d := int(math.Ceil(size.Component(a) / cell))
		if d < 1 {
			d = 1
		}
		if d > 1024 {
			d = 1024
		}
		ix.dims[a] = d
	}
	ix.h = geom.Vec3{
		X: size.X / float64(ix.dims[0]),
		Y: size.Y / float64(ix.dims[1]),
		Z: size.Z / float64(ix.dims[2]),
	}
	ix.slack = 1e-12 * math.Max(ix.bounds.Min.MaxAbs(), ix.bounds.Max.MaxAbs())
	ix.fillBuckets(ix.dims[0] * ix.dims[1] * ix.dims[2])
}

// fillBuckets distributes the points over n grid cells into the retained
// start and items arrays: count per cell, prefix-sum the counts into
// offsets, place each point at its cell's cursor.
func (ix *Index) fillBuckets(n int) {
	start := resized(ix.start, n+1)
	clear(start)
	cellOf := resized(ix.cellOf, len(ix.pts))
	for i, p := range ix.pts {
		b := ix.bucketOf(p)
		cellOf[i] = int32(b)
		start[b+1]++
	}
	for b := 1; b <= n; b++ {
		start[b] += start[b-1]
	}
	items := resized(ix.items, len(ix.pts))
	for i, b := range cellOf {
		items[start[b]] = int32(i)
		start[b]++
	}
	// Every cursor now sits at its cell's end, the next cell's beginning.
	copy(start[1:], start[:n])
	start[0] = 0
	ix.start, ix.items, ix.cellOf = start, items, cellOf
}

// resized returns s with length n and unspecified contents, reallocated
// (with withCap's headroom rule) if its capacity is below n.
func resized(s []int32, n int) []int32 {
	return withCap(s, n)[:n]
}

// bucket returns the point indices of grid cell b.
func (ix *Index) bucket(b int) []int32 {
	return ix.items[ix.start[b]:ix.start[b+1]]
}

// MinCellSize returns the smallest grid cell edge, the increment of
// guaranteed radius per shell.
func (ix *Index) MinCellSize() float64 {
	return math.Min(ix.h.X, math.Min(ix.h.Y, ix.h.Z))
}

// MaxShell returns the largest shell number that can contain any point for
// a query at p.
func (ix *Index) MaxShell(p geom.Vec3) int {
	c := ix.cellCoords(p)
	m := 0
	for a := 0; a < 3; a++ {
		m = max(m, c[a])
		m = max(m, ix.dims[a]-1-c[a])
	}
	return m
}

func (ix *Index) cellCoords(p geom.Vec3) [3]int {
	var c [3]int
	for a := 0; a < 3; a++ {
		f := (p.Component(a) - ix.bounds.Min.Component(a)) / ix.h.Component(a)
		i := int(math.Floor(f))
		if i < 0 {
			i = 0
		}
		if i >= ix.dims[a] {
			i = ix.dims[a] - 1
		}
		c[a] = i
	}
	return c
}

func (ix *Index) bucketOf(p geom.Vec3) int {
	c := ix.cellCoords(p)
	return (c[2]*ix.dims[1]+c[1])*ix.dims[0] + c[0]
}

// ShellPoint is one indexed point with its distance to the query site.
type ShellPoint struct {
	Idx  int
	ID   int64
	Pos  geom.Vec3
	Dist float64
}

// candidate is the compact record of the clipping sweep's neighbor stream:
// the distance to the query site — both the sort key and the value the
// sweep compares against its cutting range — and the index of the point,
// which breaks distance ties so the order is total.
type candidate struct {
	dist float64
	idx  int32
}

// appendShell appends to buf, unsorted, the points of shell s around p
// that are nearer than cutoff, and reports how many points it measured to
// find them. The caller may recycle buf across queries (pass buf[:0]) to
// make shell traversal allocation-free once the buffer has grown to the
// working-set size. Pruning happens at two levels: visitShell skips
// buckets by a conservative box bound without reading their points, and
// the exact per-point test behind it decides membership, so the result is
// precisely the shell's points with Dist < cutoff.
func (ix *Index) appendShell(p geom.Vec3, s int, cutoff float64, buf []candidate) (out []candidate, measured int) {
	out = buf
	ix.visitShell(p, s, cutoff, func(bucket []int32) {
		measured += len(bucket)
		for _, pi := range bucket {
			if d := ix.pts[pi].Dist(p); d < cutoff {
				out = append(out, candidate{dist: d, idx: pi})
			}
		}
	})
	return out, measured
}

// bucketSlack widens the bucket-level cutoff so that rounding in the box
// bound can never reject a bucket holding a point the exact test would
// keep; together with Index.slack it makes the bound conservative.
const bucketSlack = 1e-9

// visitShell calls fn with the point indices of every grid cell at
// Chebyshev distance exactly s from the cell containing p, except cells
// outside the grid and cells whose box is provably at or beyond cutoff
// from p. The bound is a lower bound with slack on the safe side: a cell
// it lets through may hold no point within cutoff, but a cell it skips
// holds none.
func (ix *Index) visitShell(p geom.Vec3, s int, cutoff float64, fn func(bucket []int32)) {
	c := ix.cellCoords(p)
	cutoff2 := cutoff * cutoff * (1 + bucketSlack)
	klo, khi := c[2]-s, c[2]+s
	jlo, jhi := c[1]-s, c[1]+s
	ilo, ihi := c[0]-s, c[0]+s
	for k := max(klo, 0); k <= min(khi, ix.dims[2]-1); k++ {
		gz := ix.axisGap2(2, k, p.Z)
		if gz >= cutoff2 {
			continue
		}
		for j := max(jlo, 0); j <= min(jhi, ix.dims[1]-1); j++ {
			gyz := gz + ix.axisGap2(1, j, p.Y)
			if gyz >= cutoff2 {
				continue
			}
			// On the shell's z and y faces the whole row belongs to it;
			// elsewhere only the row's two ends (the x faces) do.
			step := 1
			if k != klo && k != khi && j != jlo && j != jhi {
				step = ihi - ilo
			}
			row := (k*ix.dims[1] + j) * ix.dims[0]
			for i := ilo; i <= ihi; i += step {
				if i < 0 || i >= ix.dims[0] || gyz+ix.axisGap2(0, i, p.X) >= cutoff2 {
					continue
				}
				fn(ix.bucket(row + i))
			}
		}
	}
}

// axisGap2 returns a lower bound on the squared distance along axis a
// between coordinate x and any point stored in grid slab i of that axis: 0
// when x is inside the slab (widened by the index slack), the squared gap
// to its nearer face otherwise.
func (ix *Index) axisGap2(a, i int, x float64) float64 {
	h := ix.h.Component(a)
	lo := ix.bounds.Min.Component(a) + float64(i)*h
	g := lo - x // positive below the slab
	if x > lo+h {
		g = x - (lo + h)
	}
	if g -= ix.slack; g <= 0 {
		return 0
	}
	return g * g
}

// smallShell is the candidate count up to which the queue insertion-sorts
// a shell whole: so few candidates cost less to order than to bucket.
const smallShell = 24

// bucketFill is the mean number of candidates per bucket of a larger shell.
const bucketFill = 4

// candQueue streams a shell's candidates in the total order of before,
// ordering them only as far as the stream is read. load distributes a
// shell over buckets whose index is monotone in distance — a counting pass
// and a prefix sum, as fillBuckets distributes points over grid cells —
// and a bucket is insertion-sorted when the stream first reaches it. That
// keeps the order: a candidate of an earlier bucket is no farther than any
// of a later one, and equal distances share a bucket, so the buckets sorted
// in turn are the sorted shell. An index appears once in a shell, so
// before is a total order on it and the stream does not depend on the
// order the shell arrives in.
//
// The bucket index is linear in distance over the shell's [min, max]. The
// stream reads only the near end of a shell, where a clustered shell
// crowds: there linear buckets hold fewer candidates to sort than buckets
// that fill evenly (the distance cubed) would. A queue is reused from
// shell to shell and, once its buffers have grown, allocates nothing.
type candQueue struct {
	view       []candidate // the stream: buf, or a small shell sorted in place
	pos, ready int         // next candidate; end of view's ordered prefix
	bucket     int         // next bucket to order
	ends       []int32     // bucket b's candidates end at view[ends[b]]

	// buf is the queue's own, for bucketed shells only: a small shell is
	// viewed where the caller keeps it, and buf must not alias it. buf and
	// ends grow together, ends to the buckets of any shell buf can hold.
	buf []candidate

	ordered int64 // candidates put in order since Scratch.TakeCounts
}

// load makes a, whose order it may change, the queue's stream. The stream
// reads a until the next load.
func (q *candQueue) load(a []candidate) {
	n := len(a)
	q.pos, q.bucket = 0, 0
	if n <= smallShell {
		insertionSort(a)
		q.view, q.ready, q.ends = a, n, q.ends[:0]
		q.ordered += int64(n)
		return
	}
	// Comparisons, not min and max, so that a NaN distance is skipped; an
	// infinite bound, or a NaN where a bucket is computed, puts candidates in
	// bucket 0, which orders whatever it holds.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range a {
		if c.dist < lo {
			lo = c.dist
		}
		if c.dist > hi {
			hi = c.dist
		}
	}
	nb := n / bucketFill
	fnb := float64(nb)
	scale := fnb / (hi - lo)
	bucket := func(d float64) int {
		if x := (d - lo) * scale; x >= fnb {
			return nb - 1
		} else if x > 0 {
			return int(x)
		}
		return 0
	}
	if cap(q.buf) < n {
		q.buf, q.ends = make([]candidate, 2*n), make([]int32, 2*n/bucketFill+1)
	}
	ends := q.ends[:nb+1]
	clear(ends)
	for _, c := range a {
		ends[bucket(c.dist)+1]++
	}
	for b := 1; b <= nb; b++ {
		ends[b] += ends[b-1]
	}
	buf := q.buf[:n]
	for _, c := range a {
		b := bucket(c.dist)
		buf[ends[b]] = c
		ends[b]++
	}
	// Every cursor now sits at its bucket's end.
	q.view, q.ready, q.ends = buf, 0, ends[:nb]
}

// next returns the stream's next candidate, or false once it is exhausted.
func (q *candQueue) next() (c candidate, ok bool) {
	if q.pos < q.ready || q.orderNext() {
		c, ok = q.view[q.pos], true
		q.pos++
	}
	return c, ok
}

// orderNext sorts the next non-empty bucket, extending the ordered prefix,
// and reports whether there was one.
func (q *candQueue) orderNext() bool {
	for q.bucket < len(q.ends) {
		end := int(q.ends[q.bucket])
		q.bucket++
		if end > q.ready {
			insertionSort(q.view[q.ready:end])
			q.ordered += int64(end - q.ready)
			q.ready = end
			return true
		}
	}
	return false
}

// insertionSort sorts a under before: no closure, no allocation, and
// quick on the few candidates of a bucket or a small shell.
func insertionSort(a []candidate) {
	for i := 1; i < len(a); i++ {
		c, j := a[i], i
		for ; j > 0 && c.before(a[j-1]); j-- {
			a[j] = a[j-1]
		}
		a[j] = c
	}
}

// before is the total order of the neighbor stream: nearer first, equal
// distances by point index.
func (c candidate) before(o candidate) bool {
	return c.dist < o.dist || (c.dist == o.dist && c.idx < o.idx)
}

// Nearest returns the index, ID, and position of the indexed point nearest
// to q (the lowest index among equidistant points), scanning grid shells
// outward until the best candidate is proven nearest (all unscanned cells
// are farther than the best distance). It allocates nothing and returns
// ok == false for an empty index.
func (ix *Index) Nearest(q geom.Vec3) (sp ShellPoint, ok bool) {
	if len(ix.pts) == 0 {
		return ShellPoint{}, false
	}
	h := ix.MinCellSize()
	best := candidate{dist: math.Inf(1), idx: -1}
	maxShell := ix.MaxShell(q)
	for s := 0; s <= maxShell; s++ {
		// Buckets wholly beyond the best distance so far cannot improve it.
		ix.visitShell(q, s, best.dist, func(bucket []int32) {
			for _, pi := range bucket {
				if c := (candidate{dist: ix.pts[pi].Dist(q), idx: pi}); c.before(best) {
					best = c
				}
			}
		})
		// All points within (s)*h have been scanned after shell s; if the
		// best found is within that radius, nothing farther can beat it.
		if best.dist <= float64(s)*h {
			break
		}
	}
	if best.idx < 0 {
		return ShellPoint{}, false
	}
	return ShellPoint{Idx: int(best.idx), ID: ix.ids[best.idx], Pos: ix.pts[best.idx], Dist: best.dist}, true
}
