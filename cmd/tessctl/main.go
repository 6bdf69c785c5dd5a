// Command tessctl is the scriptable client of the tessd daemon: submit
// JSON job specs, watch their event streams, fetch statuses, and cancel
// jobs, all against the daemon's HTTP API. It reads event streams as
// binary frames and prints them as NDJSON, the lines the daemon's own
// NDJSON stream holds.
//
// Usage:
//
//	tessctl [-addr http://127.0.0.1:8437] <command> [args]
//
//	tessctl submit [-f spec.json] [-wait] [-mesh-dir DIR]
//	    Submit a job spec (from -f, or stdin with -f - or no flag).
//	    -wait streams events until the job finishes and exits non-zero
//	    on failure; -mesh-dir writes each step's merged canonical mesh to
//	    DIR/<job>-step<N>.mesh.
//	tessctl status <job-id>
//	tessctl list
//	tessctl cancel <job-id>
//	tessctl resume <job-id>
//	    Resubmit a failed or canceled job as a fresh job; a job whose
//	    spec set checkpoint_dir continues from its committed checkpoint
//	    instead of starting over. Prints the new job's status.
//	tessctl watch [-from N] <job-id>
//	    Stream a job's events as NDJSON to stdout (resumable via -from).
//	tessctl density [-step N] [-z K] [-o FILE] <job-id>
//	    Fetch a density-job step's sample grid (raw little-endian
//	    float64) — the whole N^3 grid, or one z-plane with -z. Writes to
//	    -o, or stdout when -o is "-".
//	tessctl stats
//
// Exit status: 0 on success; 1 on API or usage errors; 2 when -wait saw
// the job end in failure or cancellation.
package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/jobd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command over explicit streams; it returns the exit
// status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	top := flag.NewFlagSet("tessctl", flag.ContinueOnError)
	top.SetOutput(stderr)
	addr := top.String("addr", "http://127.0.0.1:8437", "daemon base URL")
	top.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: tessctl [-addr URL] {submit|status|list|cancel|resume|watch|density|stats} [args]\n")
		top.PrintDefaults()
	}
	if err := top.Parse(args); err != nil {
		return exitStatus(err)
	}
	if top.NArg() < 1 {
		top.Usage()
		return 1
	}
	c := &jobd.Client{Base: *addr}
	ctx := context.Background()
	out := cli{stdin: stdin, stdout: stdout, stderr: stderr}
	rest := top.Args()[1:]
	var err error
	switch cmd := top.Arg(0); cmd {
	case "submit":
		err = out.submit(ctx, c, rest)
	case "status":
		err = out.json1(rest, func(id string) (any, error) { return c.Status(ctx, id) })
	case "cancel":
		err = out.json1(rest, func(id string) (any, error) { return c.Cancel(ctx, id) })
	case "resume":
		err = out.json1(rest, func(id string) (any, error) { return c.Resume(ctx, id) })
	case "list":
		err = out.print(c.List(ctx))
	case "stats":
		err = out.print(c.Stats(ctx))
	case "watch":
		err = out.watch(ctx, c, rest)
	case "density":
		err = out.density(ctx, c, rest)
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(stderr, "tessctl: %v\n", err)
	}
	return exitStatus(err)
}

// exitStatus maps a command's error to the documented exit status; -h is
// not an error.
func exitStatus(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case err == errJobFailed:
		return 2
	}
	return 1
}

var errJobFailed = errors.New("job did not complete")

// cli holds the streams a command reads and writes.
type cli struct {
	stdin          io.Reader
	stdout, stderr io.Writer
}

// print writes v (already paired with its fetch error) as indented JSON
// on stdout.
func (c cli) print(v any, err error) error {
	if err != nil {
		return err
	}
	enc := json.NewEncoder(c.stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// json1 runs a one-ID-argument command and prints its JSON result.
func (c cli) json1(args []string, f func(id string) (any, error)) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one job ID argument")
	}
	return c.print(f(args[0]))
}

func (c cli) submit(ctx context.Context, client *jobd.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	file := fs.String("f", "-", "job spec file (\"-\" = stdin)")
	wait := fs.Bool("wait", false, "stream events until the job finishes")
	meshDir := fs.String("mesh-dir", "", "write each step's canonical mesh to this directory (implies -wait)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rd := c.stdin
	if *file != "-" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		rd = f
	}
	var spec jobd.JobSpec
	if err := json.NewDecoder(rd).Decode(&spec); err != nil {
		return fmt.Errorf("decode spec: %w", err)
	}
	st, err := client.Submit(ctx, spec)
	if err != nil {
		return err
	}
	if !*wait && *meshDir == "" {
		return c.print(st, nil)
	}
	fmt.Fprintf(c.stderr, "tessctl: submitted %s\n", st.ID)
	enc := json.NewEncoder(c.stdout)
	var terminal jobd.Event
	err = client.Events(ctx, st.ID, 0, func(e jobd.Event) error {
		if terminalEvent(e) {
			terminal = e
		}
		if *meshDir != "" && e.Type == "step" && e.MeshB64 != "" {
			raw, err := base64.StdEncoding.DecodeString(e.MeshB64)
			if err != nil {
				return fmt.Errorf("step %d mesh: %w", e.Step, err)
			}
			path := filepath.Join(*meshDir, fmt.Sprintf("%s-step%d.mesh", e.Job, e.Step))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				return err
			}
			e.MeshB64 = fmt.Sprintf("(written to %s)", path)
		}
		return enc.Encode(e)
	})
	if err != nil {
		return err
	}
	if terminal.Type != "done" {
		return errJobFailed
	}
	return nil
}

func (c cli) watch(ctx context.Context, client *jobd.Client, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	from := fs.Int("from", 0, "resume from this event sequence number")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one job ID argument")
	}
	enc := json.NewEncoder(c.stdout)
	return client.Events(ctx, fs.Arg(0), *from, func(e jobd.Event) error { return enc.Encode(e) })
}

// density fetches one step's density grid (or z-plane) from the daemon's
// slice endpoint.
func (c cli) density(ctx context.Context, client *jobd.Client, args []string) error {
	fs := flag.NewFlagSet("density", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	step := fs.Int("step", 1, "1-based step number")
	z := fs.Int("z", -1, "fetch only this z-plane (-1 = whole grid)")
	out := fs.String("o", "-", "output file (\"-\" = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one job ID argument")
	}
	var (
		grid []byte
		n    int
		err  error
	)
	if *z >= 0 {
		grid, n, err = client.DensitySlice(ctx, fs.Arg(0), *step, *z)
	} else {
		grid, n, err = client.DensityGrid(ctx, fs.Arg(0), *step)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "tessctl: step %d grid %d^3, %d bytes\n", *step, n, len(grid))
	if *out == "-" {
		_, err = c.stdout.Write(grid)
		return err
	}
	return os.WriteFile(*out, grid, 0o644)
}

func terminalEvent(e jobd.Event) bool {
	return e.Type == "done" || e.Type == "error" || e.Type == "canceled"
}
