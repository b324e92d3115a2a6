package main

// The `instrep job` subcommands are a thin client for a serve
// daemon's durable async job tier (-job-dir): submit a measurement,
// poll its status, fetch the finished report. See DESIGN.md §18.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/jobs"
)

// shutdownSignals are the graceful-shutdown triggers for every
// command: ^C from a terminal and the SIGTERM a container runtime or
// init system sends before a hard kill. Both land on the same
// NotifyContext so `serve` drains identically either way.
var shutdownSignals = []os.Signal{os.Interrupt, syscall.SIGTERM}

// notifyContext is signal.NotifyContext over shutdownSignals —
// split out so the drain-on-SIGTERM contract is unit-testable.
func notifyContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, shutdownSignals...)
}

const defaultJobAddr = "http://localhost:8100"

func cmdJob(ctx context.Context, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("job wants a subcommand: submit, status, or fetch")
	}
	switch args[0] {
	case "submit":
		return cmdJobSubmit(ctx, args[1:])
	case "status":
		return cmdJobStatus(ctx, args[1:])
	case "fetch":
		return cmdJobFetch(ctx, args[1:])
	default:
		return fmt.Errorf("unknown job subcommand %q (valid: submit, status, fetch)", args[0])
	}
}

// normalizeAddr accepts host:port or a full URL.
func normalizeAddr(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// jobGet fetches one URL, returning status, Retry-After seconds, body.
func jobGet(ctx context.Context, url string) (int, int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, nil, err
	}
	retry, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	return resp.StatusCode, retry, body, nil
}

// pollDelay turns a server Retry-After hint into a client-side sleep,
// clamped so a missing hint still polls and a huge one stays usable.
func pollDelay(retryAfterSec int) time.Duration {
	d := time.Duration(retryAfterSec) * time.Second
	if d < 200*time.Millisecond {
		d = 200 * time.Millisecond
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// sleepCtx sleeps or returns early with the context's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func printDoc(doc jobs.Doc) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// waitTerminal polls the status endpoint until the job is terminal.
func waitTerminal(ctx context.Context, base, id string) (jobs.Doc, error) {
	for {
		code, retry, body, err := jobGet(ctx, base+"/v1/jobs/"+id)
		if err != nil {
			return jobs.Doc{}, err
		}
		if code != http.StatusOK {
			return jobs.Doc{}, fmt.Errorf("job status: HTTP %d: %s", code, strings.TrimSpace(string(body)))
		}
		var doc jobs.Doc
		if err := json.Unmarshal(body, &doc); err != nil {
			return jobs.Doc{}, err
		}
		if doc.State.Terminal() {
			return doc, nil
		}
		fmt.Fprintf(os.Stderr, "instrep: job %.12s %s (retries %d, resumes %d)\n",
			id, doc.State, doc.Retries, doc.Resumes)
		if err := sleepCtx(ctx, pollDelay(retry)); err != nil {
			return jobs.Doc{}, err
		}
	}
}

func cmdJobSubmit(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("job submit", flag.ExitOnError)
	addr := fs.String("addr", defaultJobAddr, "serve daemon address")
	bench := fs.String("bench", "", "workload name (required)")
	skip := fs.Uint64("skip", 0, "instructions to skip (0 = server default)")
	measure := fs.Uint64("measure", 0, "instructions to measure (0 = server default)")
	instances := fs.Int("instances", 0, "per-instruction instance buffer limit (0 = server default)")
	reuseEntries := fs.Int("reuse-entries", 0, "reuse buffer entries (0 = server default)")
	reuseAssoc := fs.Int("reuse-assoc", 0, "reuse buffer associativity (0 = server default)")
	reusePolicy := fs.String("reuse-policy", "", "reuse buffer replacement policy (\"\" = server default)")
	variant := fs.Int("input-variant", 0, "workload input data set (0 = server default)")
	wait := fs.Bool("wait", false, "poll until the job reaches a terminal state")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bench == "" {
		return fmt.Errorf("job submit needs -bench")
	}
	// The server checks the whole spec; checking the set fields here
	// too reports a negative or oversized value before any request.
	local := repro.Config{MaxInstances: *instances, ReuseEntries: *reuseEntries, ReuseAssoc: *reuseAssoc, InputVariant: *variant}
	if err := local.Validate(); err != nil {
		return err
	}
	base := normalizeAddr(*addr)

	// Only explicitly set fields go in the body: the server fills the
	// rest from its own run configuration, so the job measures exactly
	// what a synchronous request to that server would.
	spec := map[string]any{"workload": *bench}
	if *skip > 0 {
		spec["skip"] = *skip
	}
	if *measure > 0 {
		spec["measure"] = *measure
	}
	if *instances > 0 {
		spec["instances"] = *instances
	}
	if *reuseEntries > 0 {
		spec["reuse_entries"] = *reuseEntries
	}
	if *reuseAssoc > 0 {
		spec["reuse_assoc"] = *reuseAssoc
	}
	if *reusePolicy != "" {
		spec["reuse_policy"] = *reusePolicy
	}
	if *variant > 0 {
		spec["input_variant"] = *variant
	}
	payload, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", strings.NewReader(string(payload)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusOK:
		fmt.Fprintln(os.Stderr, "instrep: job already exists (identical measurement)")
	default:
		return fmt.Errorf("job submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var doc jobs.Doc
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	if !*wait {
		printDoc(doc)
		return nil
	}
	final, err := waitTerminal(ctx, base, doc.ID)
	if err != nil {
		return err
	}
	printDoc(final)
	if final.State != jobs.StateDone {
		return fmt.Errorf("job finished %s: %s", final.State, final.Error)
	}
	return nil
}

func cmdJobStatus(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("job status", flag.ExitOnError)
	addr := fs.String("addr", defaultJobAddr, "serve daemon address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("job status wants one job ID")
	}
	code, _, body, err := jobGet(ctx, normalizeAddr(*addr)+"/v1/jobs/"+fs.Arg(0))
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("job status: HTTP %d: %s", code, strings.TrimSpace(string(body)))
	}
	os.Stdout.Write(body)
	return nil
}

func cmdJobFetch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("job fetch", flag.ExitOnError)
	addr := fs.String("addr", defaultJobAddr, "serve daemon address")
	wait := fs.Bool("wait", false, "poll until the report is ready instead of failing on a live job")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("job fetch wants one job ID")
	}
	url := normalizeAddr(*addr) + "/v1/jobs/" + fs.Arg(0) + "/report"
	for {
		code, retry, body, err := jobGet(ctx, url)
		if err != nil {
			return err
		}
		switch code {
		case http.StatusOK:
			os.Stdout.Write(body)
			return nil
		case http.StatusAccepted:
			if !*wait {
				return fmt.Errorf("job not done yet (rerun with -wait to poll):\n%s", strings.TrimSpace(string(body)))
			}
			if err := sleepCtx(ctx, pollDelay(retry)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("job fetch: HTTP %d: %s", code, strings.TrimSpace(string(body)))
		}
	}
}
