package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"

	"oassis/internal/exp"
)

// TestQuickAllGolden pins every figure and text experiment of the -quick
// harness byte for byte: the output of `oassis-bench -quick -fig all` must
// match testdata/quick_all.golden, both with the serial kernel and with
// round selection sharded across four workers. Regenerate the golden file
// with
//
//	go run ./cmd/oassis-bench -quick -fig all > cmd/oassis-bench/testdata/quick_all.golden
//
// only when a change is meant to alter the figures.
func TestQuickAllGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick_all.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer exp.SetSelectionWorkers(0)
	for _, workers := range []int{0, 4} {
		exp.SetSelectionWorkers(workers)
		got := captureStdout(t, func() error { return run("all", newConfig(true, 1), nil, false) })
		if !bytes.Equal(got, want) {
			t.Errorf("selection workers %d: -quick -fig all output differs from testdata/quick_all.golden\n%s",
				workers, firstDiff(got, want))
		}
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	runErr := fn()
	os.Stdout = saved
	w.Close()
	b := <-out
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return b
}

// firstDiff describes the first line at which got and want differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return ""
}
