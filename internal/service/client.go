package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Client is a thin Go client for a deltaserved instance.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8090".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// NewClient returns a client for the given base URL.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

// APIError is a non-2xx server answer, carrying the decoded body when the
// server sent one.
type APIError struct {
	StatusCode int
	// RetryAfter is the server's backpressure hint (zero if absent).
	RetryAfter time.Duration
	// Resp is the decoded error body, if any.
	Resp *ColorResponse
}

func (e *APIError) Error() string {
	if e.Resp != nil && e.Resp.Error != "" {
		return fmt.Sprintf("service: HTTP %d: %s", e.StatusCode, e.Resp.Error)
	}
	return fmt.Sprintf("service: HTTP %d", e.StatusCode)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) do(ctx context.Context, method, path string, body any) (*ColorResponse, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	hres, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()
	resp := &ColorResponse{}
	decErr := json.NewDecoder(hres.Body).Decode(resp)
	if hres.StatusCode >= 300 {
		apiErr := &APIError{StatusCode: hres.StatusCode}
		if decErr == nil {
			apiErr.Resp = resp
		}
		if secs, err := strconv.Atoi(hres.Header.Get("Retry-After")); err == nil {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
		return nil, apiErr
	}
	if decErr != nil {
		return nil, fmt.Errorf("service: decoding response: %w", decErr)
	}
	return resp, nil
}

// Color submits a coloring request. For sync requests the returned response
// carries the coloring; for async requests it carries the job ID to poll
// (see Wait).
func (c *Client) Color(ctx context.Context, req *ColorRequest) (*ColorResponse, error) {
	return c.do(ctx, http.MethodPost, "/v1/color", req)
}

// Job fetches the current state of an async job.
func (c *Client) Job(ctx context.Context, id string) (*ColorResponse, error) {
	return c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
}

// Wait polls an async job until it reaches a terminal state. A failed job
// is returned with a nil error; the caller inspects State and Error.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*ColorResponse, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		resp, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if resp.State == "done" || resp.State == "failed" {
			return resp, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

// Healthz checks server liveness.
func (c *Client) Healthz(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	hres, err := c.httpClient().Do(hreq)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, hres.Body)
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		return &APIError{StatusCode: hres.StatusCode}
	}
	return nil
}
