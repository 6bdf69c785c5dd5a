package cosmotools

// The run-time connection of the paper's Figure 4: in the paper, a ParaView
// server connects to the running simulation through Catalyst to inspect
// level-1 analysis products live; here, the same role is played by an HTTP
// endpoint that publishes the in situ pipeline's status and analysis
// results as JSON while the simulation runs. (The postprocessing path —
// files on parallel storage — is the meshio/diy stack; this is the other of
// the two modes of Sec. III-B.)

import (
	"encoding/json"
	"maps"
	"net/http"
	"slices"
	"sync"

	"repro/internal/nbody"
)

// Status describes the run's progress.
type Status struct {
	Step       int  `json:"step"`
	TotalSteps int  `json:"total_steps"`
	Running    bool `json:"running"`
	Particles  int  `json:"particles"`
}

// Server accumulates published analysis results and serves them over HTTP.
// It is safe for concurrent use: the simulation goroutine publishes while
// any number of HTTP clients read.
type Server struct {
	mu      sync.RWMutex
	status  Status
	results []Result
}

// NewServer returns an empty server.
func NewServer() *Server { return &Server{} }

// SetStatus updates the run status.
func (s *Server) SetStatus(st Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.status = st
}

// Publish appends one analysis result.
func (s *Server) Publish(r Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results = append(s.results, r)
}

// Handler returns the HTTP routes:
//
//	GET /status            run progress
//	GET /results           all published results
//	GET /results/latest    most recent result per analysis
//	GET /analyses          names of analyses that have published
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, req *http.Request) {
		s.mu.RLock()
		st := s.status
		s.mu.RUnlock()
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /results", func(w http.ResponseWriter, req *http.Request) {
		s.mu.RLock()
		out := append([]Result{}, s.results...)
		s.mu.RUnlock()
		writeJSON(w, out)
	})
	mux.HandleFunc("GET /results/latest", func(w http.ResponseWriter, req *http.Request) {
		s.mu.RLock()
		latest := map[string]Result{}
		for _, r := range s.results {
			latest[r.Analysis] = r
		}
		s.mu.RUnlock()
		names := slices.Sorted(maps.Keys(latest))
		out := make([]Result, 0, len(names))
		for _, n := range names {
			out = append(out, latest[n])
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("GET /analyses", func(w http.ResponseWriter, req *http.Request) {
		s.mu.RLock()
		seen := map[string]bool{}
		for _, r := range s.results {
			seen[r.Analysis] = true
		}
		s.mu.RUnlock()
		names := slices.Sorted(maps.Keys(seen))
		writeJSON(w, names)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Attach wires a pipeline to the server: from now on every Step of the
// pipeline also publishes its results and the run status here. It returns
// p.Hook(totalSteps), to pass to Simulation.Run.
func (s *Server) Attach(p *Pipeline, totalSteps int) func(*nbody.Simulation) {
	p.live = s
	return p.Hook(totalSteps)
}
