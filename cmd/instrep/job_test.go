package main

import (
	"context"
	"errors"
	"os"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSIGTERMTriggersGracefulShutdown pins the container-stop
// contract: the shutdown context every command runs under is canceled
// by SIGTERM, not just ^C, so `docker stop` / Kubernetes pod
// termination drains the serve daemon instead of hard-killing it.
func TestSIGTERMTriggersGracefulShutdown(t *testing.T) {
	found := false
	for _, sig := range shutdownSignals {
		if sig == syscall.SIGTERM {
			found = true
		}
	}
	if !found {
		t.Fatalf("shutdownSignals = %v, missing SIGTERM", shutdownSignals)
	}

	// Behavioral check: install the handler, send ourselves SIGTERM,
	// and require the context to cancel (the default disposition would
	// kill the process — the handler existing is the point).
	ctx, stop := notifyContext(context.Background())
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not cancel the shutdown context")
	}
}

// TestJobClientArgValidation pins the CLI surface errors that need no
// server: missing subcommand, unknown subcommand, missing -bench,
// missing job ID.
func TestJobClientArgValidation(t *testing.T) {
	ctx := context.Background()
	if err := cmdJob(ctx, nil); err == nil {
		t.Error("job with no subcommand succeeded")
	}
	if err := cmdJob(ctx, []string{"bogus"}); err == nil {
		t.Error("unknown subcommand succeeded")
	}
	if err := cmdJobSubmit(ctx, nil); err == nil {
		t.Error("submit without -bench succeeded")
	}
	if err := cmdJobStatus(ctx, nil); err == nil {
		t.Error("status without ID succeeded")
	}
	if err := cmdJobFetch(ctx, nil); err == nil {
		t.Error("fetch without ID succeeded")
	}
}

func TestNormalizeAddr(t *testing.T) {
	for in, want := range map[string]string{
		"localhost:8100":       "http://localhost:8100",
		"http://10.0.0.1:80/":  "http://10.0.0.1:80",
		"https://reports.corp": "https://reports.corp",
		"127.0.0.1:9999":       "http://127.0.0.1:9999",
	} {
		if got := normalizeAddr(in); got != want {
			t.Errorf("normalizeAddr(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPollDelayClamps(t *testing.T) {
	if d := pollDelay(0); d != 200*time.Millisecond {
		t.Errorf("pollDelay(0) = %v", d)
	}
	if d := pollDelay(2); d != 2*time.Second {
		t.Errorf("pollDelay(2) = %v", d)
	}
	if d := pollDelay(3600); d != 5*time.Second {
		t.Errorf("pollDelay(3600) = %v", d)
	}
}

// TestConfigFlagsRejected: a reuse geometry or table size out of
// core's range is an error from run, serve and job submit before any
// simulation, listener or request, not a recovered panic. The context
// is canceled, so a command that missed the check would return
// another error instead of serving; no case here could allocate a
// large buffer if it reached a run.
func TestConfigFlagsRejected(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		cmd  string
		run  func(context.Context, []string) error
		args []string
	}{
		{"run", cmdRun, []string{"-bench", "lzw", "-reuse-assoc", "-1"}},
		{"run", cmdRun, []string{"-bench", "lzw", "-instances", "-1"}},
		{"serve", cmdServe, []string{"-addr", "127.0.0.1:0", "-reuse-entries", "2000000"}},
		{"serve", cmdServe, []string{"-addr", "127.0.0.1:0", "-input-variant", "-1"}},
		{"job submit", cmdJobSubmit, []string{"-addr", "127.0.0.1:1", "-bench", "lzw", "-reuse-assoc", "-1"}},
		{"job submit", cmdJobSubmit, []string{"-addr", "127.0.0.1:1", "-bench", "lzw", "-reuse-assoc", "1000000000"}},
	} {
		var ce *core.ConfigError
		if err := c.run(ctx, c.args); !errors.As(err, &ce) {
			t.Errorf("%s %v: err %v, want a *core.ConfigError", c.cmd, c.args, err)
		}
	}
}
