package jobd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// HTTP surface of the daemon (all JSON; event streams are NDJSON, or
// event frames on request):
//
//	GET    /healthz             -> 200 "ok"
//	GET    /v1/stats            -> Stats
//	POST   /v1/jobs             -> 202 JobStatus | 400 bad spec |
//	                               429 (+ Retry-After seconds) saturated |
//	                               503 shutting down
//	GET    /v1/jobs             -> []JobStatus (submission order)
//	GET    /v1/jobs/{id}        -> JobStatus | 404
//	DELETE /v1/jobs/{id}        -> JobStatus after cancel | 404
//	POST   /v1/jobs/{id}/resume -> 202 new JobStatus (failed/canceled
//	                               job resubmitted; continues from its
//	                               committed checkpoint when the spec
//	                               set checkpoint_dir) | 400 | 404
//	GET    /v1/jobs/{id}/events -> NDJSON Event stream (replay + live
//	                               tail until the terminal event);
//	                               with Accept: application/x-tess-events,
//	                               event frames instead (frames.go);
//	                               ?from=N resumes at sequence N |
//	                               410 with the reason once the
//	                               finished job's log was evicted
//	GET    /v1/jobs/{id}/density/{step}
//	                            -> the step's density grid, raw
//	                               little-endian float64
//	                               (application/octet-stream,
//	                               X-Density-Grid-N header); ?z=K serves
//	                               one z-plane of N*N values | 404 until
//	                               that step's density has completed |
//	                               410 once evicted

// apiError is the JSON error body of every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP API.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Stats())
	})
	mux.HandleFunc("POST /v1/jobs", d.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.List())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, err := d.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, d, err)
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := d.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, d, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/jobs/{id}/resume", func(w http.ResponseWriter, r *http.Request) {
		nj, err := d.Resume(r.PathValue("id"))
		if err != nil {
			writeError(w, d, err)
			return
		}
		writeJSON(w, http.StatusAccepted, nj.Status())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", d.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/density/{step}", d.handleDensity)
	return mux
}

// handleDensity serves one step's stored density grid, whole or as a
// single z-plane (?z=K). Grids are retained per job until the job is
// evicted under Config.RetainBytes, so a client may fetch any completed
// step while the job runs and for a while after it finished.
func (d *Daemon) handleDensity(w http.ResponseWriter, r *http.Request) {
	j, err := d.Job(r.PathValue("id"))
	if err == nil {
		err = j.errIfEvicted()
	}
	if err != nil {
		writeError(w, d, err)
		return
	}
	step, err := strconv.Atoi(r.PathValue("step"))
	if err != nil || step < 1 {
		writeError(w, d, badSpec("step %q, want a positive integer", r.PathValue("step")))
		return
	}
	grid, n, ok := j.densityGrid(step)
	if !ok {
		writeError(w, d, fmt.Errorf("%w: no density grid for job %s step %d", ErrUnknownJob, j.ID(), step))
		return
	}
	if zq := r.URL.Query().Get("z"); zq != "" {
		z, err := strconv.Atoi(zq)
		if err != nil || z < 0 || z >= n {
			writeError(w, d, badSpec("z = %q outside [0, %d)", zq, n))
			return
		}
		plane := n * n * 8
		grid = grid[z*plane : (z+1)*plane]
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Density-Grid-N", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(grid)
}

// decodeSpec is the strict decoder of the submit body: a field JobSpec does
// not have is an error, so a misspelt option is a 400 and never a default.
func decodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, badSpec("invalid JSON: %v", err)
	}
	return spec, nil
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(r.Body)
	if err != nil {
		writeError(w, d, err)
		return
	}
	j, err := d.Submit(spec)
	if err != nil {
		writeError(w, d, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

// handleEvents streams a job's event log: full replay from ?from
// (default 0), then a live tail until the terminal event or client
// disconnect. Each event is one JSON line, or two frames for a client
// that asks for them (frames.go), flushed immediately; a framed stream
// ends with its end frame once the log is closed.
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, err := d.Job(r.PathValue("id"))
	if err == nil {
		err = j.errIfEvicted()
	}
	if err != nil {
		writeError(w, d, err)
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, d, badSpec("from = %q, want a non-negative integer", q))
			return
		}
		from = n
	}
	ew := newEventWriter(w, r)
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	cur := from
	for {
		evs, closed, changed := j.log.since(cur)
		for i := range evs {
			if err := ew.event(&evs[i]); err != nil {
				return // client gone
			}
		}
		cur += len(evs)
		if closed && ew.end() != nil {
			return
		}
		if flusher != nil && (len(evs) > 0 || closed) {
			flusher.Flush()
		}
		if closed {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-d.quit:
			return
		}
	}
}

// writeJSON writes v as the JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps daemon sentinels to HTTP statuses; ErrSaturated carries
// the Retry-After admission hint.
func writeError(w http.ResponseWriter, d *Daemon, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadSpec):
		status = http.StatusBadRequest
	case errors.Is(err, ErrSaturated):
		status = http.StatusTooManyRequests
		secs := int(math.Ceil(d.RetryAfter().Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	case errors.Is(err, ErrUnknownJob):
		status = http.StatusNotFound
	case errors.Is(err, ErrEvicted):
		status = http.StatusGone
	case errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}
