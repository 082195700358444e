package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/ebsn/igepa/internal/lp"
)

// TestOptionsLPKnobsPlumbed pins how both entry points, LPPacking and
// NewPlanner, reject a negative worker bound: Options.LP's reaches the
// solver and fails there as *lp.OptionError, and Options.Workers fails
// before enumeration under its own name.
func TestOptionsLPKnobsPlumbed(t *testing.T) {
	in := tinyInstance()
	entries := map[string]func(Options) error{
		"LPPacking": func(opt Options) error { _, err := LPPacking(in.Clone(), opt); return err },
		"NewPlanner": func(opt Options) error {
			p, err := NewPlanner(in.Clone(), opt)
			if err == nil {
				p.Close()
			}
			return err
		},
	}
	for name, run := range entries {
		var oe *lp.OptionError
		if err := run(Options{Seed: 1, LP: lp.Revised{Workers: -1}}); !errors.As(err, &oe) || oe.Option != "Workers" {
			t.Errorf("%s with LP.Workers -1: err = %v, want *lp.OptionError on Workers", name, err)
		}
		err := run(Options{Seed: 1, Workers: -1})
		if err == nil || errors.As(err, &oe) || !strings.Contains(err.Error(), "Options.Workers") {
			t.Errorf("%s with Workers -1: err = %v, want an error naming Options.Workers", name, err)
		}
	}
}
