package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"3a", "3b", "4a", "4b", "5", "6", "7", "8", "9a", "9b", "10"} {
		if !strings.Contains(b.String(), id+" ") && !strings.Contains(b.String(), id+"\t") &&
			!strings.Contains(b.String(), "\n"+id) && !strings.HasPrefix(b.String(), id) {
			t.Fatalf("listing missing figure %s:\n%s", id, b.String())
		}
	}
}

func TestFig2Table(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "2"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"N = 100", "Π = 70", "β = 1500", "T = 0.03"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("Fig. 2 table missing %q:\n%s", want, b.String())
		}
	}
}

func TestFigQuickToStdout(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "7", "-quick"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "receivers per event") {
		t.Fatalf("fig 7 output wrong:\n%s", b.String())
	}
}

func TestFigQuickToFile(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-fig", "7", "-quick", "-out", dir}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig7.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "receivers per event") {
		t.Fatalf("fig7.txt content wrong:\n%s", data)
	}
}

func TestUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "99"}, &strings.Builder{}); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if err := run(nil, &strings.Builder{}); err == nil {
		t.Fatal("missing -fig accepted")
	}
}

// TestResultsPinned regenerates Fig. 2 and Fig. 7 at full size and
// requires them byte-identical to the committed results/ files: the
// cheap end of the contract that scripts/figures.sh checks for every
// figure. Fig. 7 takes about a second, so this runs under -short too.
func TestResultsPinned(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"2", "7"} {
		if err := run([]string{"-fig", id, "-out", dir}, &strings.Builder{}); err != nil {
			t.Fatal(err)
		}
		name := "fig" + id + ".txt"
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("results/%s is stale or the code changed its output:\n--- regenerated\n%s--- committed\n%s", name, got, want)
		}
	}
}
