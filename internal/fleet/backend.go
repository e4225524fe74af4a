package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"jrpm/internal/serve"
)

// Backend is one `jrpm serve` replica as the router sees it: submit a job,
// block until it is terminal, and return the canonical codec encoding of
// its full result together with the terminal JobView. A non-done terminal
// status is an error.
type Backend interface {
	// Name identifies the replica (ring position, metrics label).
	Name() string
	// Run executes the spec to completion. ctx bounds the whole call.
	Run(ctx context.Context, spec serve.JobSpec) ([]byte, serve.JobView, error)
}

// ErrJobFailed reports a replica job that reached a terminal status other
// than done; the view travels in the error text.
var ErrJobFailed = errors.New("fleet: job did not complete")

// ErrInterrupted reports a replica job that was cancelled by the replica —
// typically a shutdown drain — rather than failing deterministically. Unlike
// ErrJobFailed it is retryable: the router fetches the replica's last
// checkpoint and migrates the job to the next shard in the ring.
var ErrInterrupted = errors.New("fleet: job interrupted on replica")

// CheckpointFetcher is the optional backend capability fleet migration needs:
// fetch a job's latest safepoint checkpoint envelope. Both built-in backends
// implement it; a backend without it migrates by restarting from the program.
type CheckpointFetcher interface {
	Checkpoint(ctx context.Context, id int64) ([]byte, error)
}

// LocalBackend adapts an in-process serve.Server — the form the
// conformance and chaos suites drive so replica behaviour is exercised
// without socket noise.
type LocalBackend struct {
	ReplicaName string
	Server      *serve.Server
}

// Name identifies the replica.
func (b *LocalBackend) Name() string { return b.ReplicaName }

// Run submits, waits for a terminal status, and fetches the result bytes.
func (b *LocalBackend) Run(ctx context.Context, spec serve.JobSpec) ([]byte, serve.JobView, error) {
	view, err := b.Server.Submit(spec)
	if err != nil {
		return nil, serve.JobView{}, err
	}
	view, err = b.Server.Wait(ctx, view.ID)
	if err != nil {
		return nil, view, err
	}
	if view.Status != serve.StatusDone {
		if ctx.Err() != nil {
			return nil, view, context.Cause(ctx)
		}
		if view.Status == serve.StatusCancelled {
			return nil, view, fmt.Errorf("%w: %s", ErrInterrupted, view.Error)
		}
		return nil, view, fmt.Errorf("%w: status %s: %s", ErrJobFailed, view.Status, view.Error)
	}
	wire, err := b.Server.ResultBytes(view.ID)
	if err != nil {
		return nil, view, err
	}
	return wire, view, nil
}

// Checkpoint fetches the job's latest safepoint checkpoint from the embedded
// server.
func (b *LocalBackend) Checkpoint(_ context.Context, id int64) ([]byte, error) {
	return b.Server.Checkpoint(id)
}

// HTTPBackend drives a remote `jrpm serve` replica over its HTTP surface:
// POST /jobs, GET /jobs/{id}?wait=..., GET /jobs/{id}/result.
type HTTPBackend struct {
	ReplicaName string
	BaseURL     string // e.g. http://127.0.0.1:8081
	Client      *http.Client
}

// Name identifies the replica.
func (b *HTTPBackend) Name() string { return b.ReplicaName }

func (b *HTTPBackend) client() *http.Client {
	if b.Client != nil {
		return b.Client
	}
	return http.DefaultClient
}

// Run submits the spec, polls with server-side waits until the job is
// terminal, and fetches the canonical result bytes.
func (b *HTTPBackend) Run(ctx context.Context, spec serve.JobSpec) ([]byte, serve.JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, serve.JobView{}, err
	}
	var view serve.JobView
	if err := b.doJSON(ctx, http.MethodPost, "/jobs", bytes.NewReader(body), http.StatusAccepted, &view); err != nil {
		return nil, serve.JobView{}, err
	}
	for !terminal(view.Status) {
		if err := ctx.Err(); err != nil {
			return nil, view, context.Cause(ctx)
		}
		// Server-side wait bounded well under typical client deadlines so a
		// dead replica is noticed quickly.
		path := fmt.Sprintf("/jobs/%d?wait=%s", view.ID, waitSlice(ctx))
		if err := b.doJSON(ctx, http.MethodGet, path, nil, http.StatusOK, &view); err != nil {
			return nil, view, err
		}
	}
	if view.Status != serve.StatusDone {
		if view.Status == serve.StatusCancelled {
			return nil, view, fmt.Errorf("%w: %s", ErrInterrupted, view.Error)
		}
		return nil, view, fmt.Errorf("%w: status %s: %s", ErrJobFailed, view.Status, view.Error)
	}
	wire, err := b.fetchBytes(ctx, fmt.Sprintf("/jobs/%d/result", view.ID))
	if err != nil {
		return nil, view, err
	}
	return wire, view, nil
}

// Checkpoint fetches the job's latest safepoint checkpoint over HTTP.
func (b *HTTPBackend) Checkpoint(ctx context.Context, id int64) ([]byte, error) {
	return b.fetchBytes(ctx, fmt.Sprintf("/jobs/%d/checkpoint", id))
}

// fetchBytes GETs an octet-stream endpoint.
func (b *HTTPBackend) fetchBytes(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: %s %s: %s", b.ReplicaName, path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// doJSON issues one request and decodes the JSON response into out.
func (b *HTTPBackend) doJSON(ctx context.Context, method, path string, body io.Reader, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, b.BaseURL+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fleet: %s %s %s: %s: %s", b.ReplicaName, method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func terminal(st serve.Status) bool {
	return st == serve.StatusDone || st == serve.StatusFailed || st == serve.StatusCancelled
}

// waitSlice picks the server-side wait for one poll: a second, or less when
// the caller's deadline is closer.
func waitSlice(ctx context.Context) time.Duration {
	slice := time.Second
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < slice {
			slice = rem
		}
	}
	if slice < 10*time.Millisecond {
		slice = 10 * time.Millisecond
	}
	return slice
}
