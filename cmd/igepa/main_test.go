package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ebsn/igepa"
)

// writeSmallInstance saves a small synthetic instance to dir and returns its
// path.
func writeSmallInstance(t *testing.T, dir string) string {
	t.Helper()
	in, err := igepa.Synthetic(igepa.SyntheticConfig{
		Seed: 3, NumEvents: 10, NumUsers: 20,
		MaxEventCap: 4, MaxUserCap: 2, MinBids: 2, MaxBids: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "instance.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := igepa.SaveInstance(f, in); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFromFileAllAlgorithms(t *testing.T) {
	dir := t.TempDir()
	path := writeSmallInstance(t, dir)
	for _, alg := range []string{"lp-packing", "greedy", "random-u", "random-v", "local-search"} {
		if err := run(path, false, false, alg, 1, "", true); err != nil {
			t.Errorf("%s: %v", alg, err)
		}
	}
}

func TestRunWritesArrangement(t *testing.T) {
	dir := t.TempDir()
	path := writeSmallInstance(t, dir)
	out := filepath.Join(dir, "arr.json")
	if err := run(path, false, false, "greedy", 1, out, false); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	arr, err := igepa.LoadArrangement(f)
	if err != nil {
		t.Fatal(err)
	}
	if arr.Size() == 0 {
		t.Error("written arrangement is empty")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", false, false, "greedy", 1, "", false); err == nil {
		t.Error("missing input source accepted")
	}
	if err := run("/nonexistent.json", false, false, "greedy", 1, "", false); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	path := writeSmallInstance(t, dir)
	if err := run(path, false, false, "bogus", 1, "", false); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestLoadOrGenerateSelectors(t *testing.T) {
	in, err := loadOrGenerate("", true, false, 1)
	if err != nil || in.NumUsers() != 2000 {
		t.Errorf("synthetic: %v users=%d", err, in.NumUsers())
	}
}

// TestLPObjectiveLineNamesTruncation checks that the LP objective is called
// an upper bound on OPT only when no user's admissible sets were truncated.
func TestLPObjectiveLineNamesTruncation(t *testing.T) {
	in, err := igepa.Meetup(igepa.MeetupConfig{Seed: 1, NumUsers: 400})
	if err != nil {
		t.Fatal(err)
	}
	res, err := igepa.LPPacking(in, igepa.LPPackingOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TruncatedUsers != 11 {
		t.Fatalf("%d truncated users, want the fixture's 11", res.TruncatedUsers)
	}
	line := lpObjectiveLine(res)
	if strings.Contains(line, "(upper bound") || !strings.Contains(line, "not an upper bound") ||
		!strings.Contains(line, "11 users") {
		t.Errorf("truncated LP reported as %q", line)
	}
	full := *res
	full.TruncatedUsers = 0
	if line := lpObjectiveLine(&full); !strings.Contains(line, "(upper bound on OPT)") {
		t.Errorf("untruncated LP reported as %q", line)
	}
}
