package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/validate"
)

type text string

func (t text) String() string { return string(t) }

// opt is the options every fake experiment must receive.
var opt = validate.Options{Limit: 1000, Parallelism: 3}

// fakes are three experiments in registry order; "b" fails. Each
// records its name in ran when it runs.
func fakes(t *testing.T, ran *[]string) []validate.Experiment {
	mk := func(name, out string, err error) validate.Experiment {
		return validate.Experiment{Name: name, Run: func(o validate.Options) (fmt.Stringer, error) {
			*ran = append(*ran, name)
			if o != opt {
				t.Errorf("%s ran with %+v, want %+v", name, o, opt)
			}
			if err != nil {
				return nil, err
			}
			return text(out), nil
		}}
	}
	return []validate.Experiment{
		mk("a", "A", nil),
		mk("b", "", errors.New("nope")),
		mk("c", "C", nil),
	}
}

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		names  []string
		code   int
		ran    string
		stdout string
		stderr string
	}{
		{
			// Everything runs; the failure is reported and the others
			// still run.
			name:   "all",
			code:   1,
			ran:    "a,b,c",
			stdout: "A\nC\n",
			stderr: "b: nope\nvalidate: 1 of 3 experiments failed: b\n",
		},
		{
			// Registry order wins, not selection order.
			name:   "selection",
			names:  []string{"c", "a"},
			code:   0,
			ran:    "a,c",
			stdout: "A\nC\n",
		},
		{
			name:   "only the failing one",
			names:  []string{"b"},
			code:   1,
			ran:    "b",
			stderr: "b: nope\nvalidate: 1 of 1 experiments failed: b\n",
		},
		{
			// An unknown name is reported before anything runs.
			name:   "unknown",
			names:  []string{"c", "zzz", "a"},
			code:   2,
			stderr: "validate: unknown experiment \"zzz\" (have: a, b, c)\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ran []string
			var stdout, stderr bytes.Buffer
			code := run(fakes(t, &ran), tc.names, opt, &stdout, &stderr)
			if code != tc.code {
				t.Errorf("exit status = %d, want %d", code, tc.code)
			}
			if got := strings.Join(ran, ","); got != tc.ran {
				t.Errorf("ran %q, want %q", got, tc.ran)
			}
			if stdout.String() != tc.stdout {
				t.Errorf("stdout = %q, want %q", stdout.String(), tc.stdout)
			}
			if stderr.String() != tc.stderr {
				t.Errorf("stderr = %q, want %q", stderr.String(), tc.stderr)
			}
		})
	}
}
