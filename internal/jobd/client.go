package jobd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Client is the typed HTTP client of the daemon API, shared by the
// tessctl CLI and the in-process e2e harness so both exercise the exact
// wire surface a real tenant sees.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8437".
	Base string
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
}

// APIError is a non-2xx daemon response: the status code, the server's
// error message, and — for 429 admission rejections — the parsed
// Retry-After hint.
type APIError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("jobd: server returned %d: %s", e.Status, e.Message)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues a request and decodes the JSON response into out (when
// non-nil), converting non-2xx responses into *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("jobd: encode request: %w", err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return apiErrorFrom(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiErrorFrom converts a non-2xx response (draining its body).
func apiErrorFrom(resp *http.Response) error {
	apiErr := &APIError{Status: resp.StatusCode}
	var body apiError
	if err := json.NewDecoder(resp.Body).Decode(&body); err == nil {
		apiErr.Message = body.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// Submit posts a job spec. A saturated daemon surfaces as an *APIError
// with Status 429 and a RetryAfter hint.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// List fetches every job's status in submission order.
func (c *Client) List(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Cancel cancels a job and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Resume resubmits a failed or canceled job as a fresh job and returns
// the new job's status; when the spec set checkpoint_dir, the new job
// continues from the committed checkpoint.
func (c *Client) Resume(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/resume", nil, &st)
	return st, err
}

// Stats fetches the daemon-wide stats.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// DensityGrid fetches one step's full density grid (raw little-endian
// float64, decodable with tess.DecodeDensityGrid) and the grid resolution
// from the X-Density-Grid-N header.
func (c *Client) DensityGrid(ctx context.Context, id string, step int) ([]byte, int, error) {
	return c.fetchDensity(ctx, fmt.Sprintf("%s/v1/jobs/%s/density/%d", c.Base, id, step))
}

// DensitySlice fetches one z-plane (n*n values) of a step's density grid.
func (c *Client) DensitySlice(ctx context.Context, id string, step, z int) ([]byte, int, error) {
	return c.fetchDensity(ctx, fmt.Sprintf("%s/v1/jobs/%s/density/%d?z=%d", c.Base, id, step, z))
}

func (c *Client) fetchDensity(ctx context.Context, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, apiErrorFrom(resp)
	}
	n, err := strconv.Atoi(resp.Header.Get("X-Density-Grid-N"))
	if err != nil {
		return nil, 0, fmt.Errorf("jobd: bad X-Density-Grid-N header %q", resp.Header.Get("X-Density-Grid-N"))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return body, n, nil
}

// Events streams a job's events from sequence from, calling fn for each.
// It asks for event frames, in which a step's mesh travels as raw bytes,
// and yields the Event values the NDJSON stream carries, MeshB64
// included. It returns nil when the stream reaches its end frame, which
// the daemon writes after the job's terminal event; an error wrapping
// io.ErrUnexpectedEOF when the stream stops before it (the daemon shut
// down or the connection broke); the context error on cancellation; or
// fn's error to stop early. A daemon that answers NDJSON instead is read
// as NDJSON, where a stream that stops early cannot be told from a
// finished one: Events returns nil at the end of the body.
func (c *Client) Events(ctx context.Context, id string, from int, fn func(Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", c.Base, id, from), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", framesType)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiErrorFrom(resp)
	}
	if resp.Header.Get("Content-Type") == framesType {
		var fnErr error
		err := readFrames(resp.Body, func(e Event) error { fnErr = fn(e); return fnErr })
		if err != nil && err != fnErr && ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxFrameLen) // mesh payloads are large
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("jobd: decode event: %w", err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	return nil
}
