package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestBatchReadsLinesSentAfterFirstResult pins the streaming contract of
// the batch endpoint: a client may keep sending request lines after the
// first result has come back. Without full duplex, net/http drains and
// closes the unread request body at the first flush, so later lines are
// lost and the stream ends in a read-after-close error.
func TestBatchReadsLinesSentAfterFirstResult(t *testing.T) {
	ts := httptest.NewServer(New(engine.New(engine.Options{}), Options{}))
	defer ts.Close()
	ctx := context.Background()
	info, err := NewClient(ts.URL, ts.Client()).Generate(ctx, "regular", 90, 3)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(RunRequest{Algo: "changli", Params: map[string]string{"seed": "2", "scale": "0.05"}})
	if err != nil {
		t.Fatal(err)
	}
	line = append(line, '\n')

	pr, pw := io.Pipe()
	firstResult := make(chan struct{})
	go func() {
		pw.Write(line)
		// Send the second line once the first result is out. The timer only
		// keeps a server that blocks on the unread body from hanging the test.
		select {
		case <-firstResult:
		case <-time.After(5 * time.Second):
		}
		pw.Write(line)
		pw.Close()
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/graphs/"+info.ID+"/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []BatchLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var bl BatchLine
		if err := json.Unmarshal(sc.Bytes(), &bl); err != nil {
			t.Fatalf("line %d: %v", len(lines), err)
		}
		if len(lines) == 0 {
			close(firstResult)
		}
		lines = append(lines, bl)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d batch lines, want 2: %+v", len(lines), lines)
	}
	for i, bl := range lines {
		if bl.Error != "" || bl.Result == nil || bl.Index != i {
			t.Fatalf("line %d: index %d, error %q", i, bl.Index, bl.Error)
		}
	}
}
