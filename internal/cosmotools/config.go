// Package cosmotools is the in situ analysis framework of the paper's
// Figure 4: a suite of level-1 analysis tools (Voronoi tessellation, halo
// finding, multistream classification, feature tracking, power spectra)
// run at selected time steps of the simulation under a common interface.
// Tools are enabled and parameterized through a configuration deck, their
// execution frequency is configurable, and results go to parallel storage
// for postprocessing or to a live endpoint (Server) for run-time
// inspection.
package cosmotools

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// Config is a parsed cosmology-tools configuration deck: a sequence of
// analysis sections with key = value parameters, e.g.
//
//	# analyses run in situ
//	[tess]
//	every = 10
//	ghost = 4
//
//	[halo]
//	every = 20
//	linking_length = 0.2
type Config struct {
	// Sections preserves deck order; duplicate section names are an error.
	Sections []Section
}

// Section is one analysis block of the deck.
type Section struct {
	Name   string
	Params map[string]string
}

// ParseConfig reads a configuration deck. Blank lines and #-comments are
// ignored; keys are lowercase identifiers.
func ParseConfig(r io.Reader) (*Config, error) {
	cfg := &Config{}
	seen := map[string]bool{}
	var cur *Section
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("cosmotools: line %d: malformed section %q", lineNo, line)
			}
			name := strings.TrimSpace(line[1 : len(line)-1])
			if name == "" {
				return nil, fmt.Errorf("cosmotools: line %d: empty section name", lineNo)
			}
			if seen[name] {
				return nil, fmt.Errorf("cosmotools: line %d: duplicate section %q", lineNo, name)
			}
			seen[name] = true
			cfg.Sections = append(cfg.Sections, Section{Name: name, Params: map[string]string{}})
			cur = &cfg.Sections[len(cfg.Sections)-1]
			continue
		}
		eq := strings.Index(line, "=")
		if eq < 0 {
			return nil, fmt.Errorf("cosmotools: line %d: expected key = value, got %q", lineNo, line)
		}
		if cur == nil {
			return nil, fmt.Errorf("cosmotools: line %d: key outside any [section]", lineNo)
		}
		key := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(line[eq+1:])
		if key == "" {
			return nil, fmt.Errorf("cosmotools: line %d: empty key", lineNo)
		}
		if _, dup := cur.Params[key]; dup {
			return nil, fmt.Errorf("cosmotools: line %d: duplicate key %q in [%s]", lineNo, key, cur.Name)
		}
		cur.Params[key] = val
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// params reads one section's keys for a tool's constructor. Each getter
// remembers the key it was asked for and keeps the first parse error, so
// done can report that error or, failing one, the keys that are present but
// were never read: a constructor names each of its keys once.
type params struct {
	s    *Section
	read map[string]bool
	err  error
}

func param[T any](p *params, key string, def T, parse func(string) (T, error)) T {
	p.read[key] = true
	v, ok := p.s.Params[key]
	if !ok {
		return def
	}
	x, err := parse(v)
	if err != nil {
		if p.err == nil {
			p.err = fmt.Errorf("cosmotools: [%s] %s: %w", p.s.Name, key, err)
		}
		return def
	}
	return x
}

func (p *params) int(key string, def int) int { return param(p, key, def, strconv.Atoi) }

func (p *params) float(key string, def float64) float64 {
	return param(p, key, def, func(v string) (float64, error) { return strconv.ParseFloat(v, 64) })
}

func (p *params) bool(key string, def bool) bool { return param(p, key, def, strconv.ParseBool) }

// oneOf returns the named parameter, which must be one of allowed; the
// first of them is the default.
func (p *params) oneOf(key string, allowed ...string) string {
	p.read[key] = true
	v, ok := p.s.Params[key]
	if !ok {
		return allowed[0]
	}
	if !slices.Contains(allowed, v) && p.err == nil {
		p.err = fmt.Errorf("cosmotools: [%s] %s must be %s, got %q",
			p.s.Name, key, strings.Join(allowed, " or "), v)
	}
	return v
}

// done ends the read: the first bad value, or else the keys no getter
// asked for (typos in the deck), or nil.
func (p *params) done() error {
	if p.err != nil {
		return p.err
	}
	var bad []string
	for _, k := range slices.Sorted(maps.Keys(p.s.Params)) {
		if !p.read[k] {
			bad = append(bad, k)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("cosmotools: [%s] has unknown keys %v", p.s.Name, bad)
	}
	return nil
}
