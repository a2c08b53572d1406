package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// usageFlags reads, for every command in usageText, the flags listed
// under it, with flag groups expanded. values holds the example values
// the text gives for -format ("text|json|csv"), per command.
func usageFlags(t *testing.T) (flags map[string][]string, formats map[string][]string) {
	t.Helper()
	lines := strings.Split(usageText, "\n")
	groups := map[string][]string{}
	inGroups := false
	for _, l := range lines {
		if l == "flag groups:" {
			inGroups = true
			continue
		}
		if f := strings.Fields(l); inGroups && len(f) > 0 {
			groups[f[0]] = flagTokens(l)
		}
	}
	flags, formats = map[string][]string{}, map[string][]string{}
	cmd := ""
	for _, l := range lines {
		if l == "flag groups:" {
			break
		}
		switch {
		case strings.HasPrefix(l, "  ") && len(l) > 2 && l[2] >= 'a' && l[2] <= 'z':
			cmd = strings.Fields(l)[0]
			flags[cmd] = []string{}
		case cmd != "" && len(l) > 6 && strings.HasPrefix(l, "      ") && (l[6] == '-' || l[6] >= 'A' && l[6] <= 'Z'):
			for _, tok := range strings.Fields(l) {
				flags[cmd] = append(flags[cmd], groups[tok]...)
			}
			flags[cmd] = append(flags[cmd], flagTokens(l)...)
			if m := regexp.MustCompile(`-format (\S+)`).FindStringSubmatch(l); m != nil {
				formats[cmd] = strings.Split(m[1], "|")
			}
		}
	}
	if len(groups) == 0 || len(flags) != len(commands) {
		t.Fatalf("usage text lists %d commands and %d flag groups; the command table has %d commands", len(flags), len(groups), len(commands))
	}
	return flags, formats
}

// flagTokens returns the flag names (without "-") a usage line lists.
func flagTokens(line string) []string {
	var out []string
	for _, m := range regexp.MustCompile(`(?:^|\s)-([a-z][a-z-]*)`).FindAllStringSubmatch(line, -1) {
		out = append(out, m[1])
	}
	return out
}

// sample is a valid value for every flag the CLI defines.
var sample = map[string]string{
	"scale": "0.05", "modules": "S0,S3", "seed": "7", "scales": "0.05,0.1", "seeds": "1,2",
	"modulesets": "S0,S3;H0", "workers": "2", "trace": "t.json", "cpuprofile": "cpu.prof",
	"cache-dir": "cache", "stats": "true", "ledger-dir": "ledger", "format": "text", "top": "5",
	"experiment": "fig6", "kind": "run", "limit": "3", "threshold": "0.1", "gate": "determinism",
	"clients": "2", "requests": "4", "mix": "fig6,fig7", "target": "http://localhost:1",
}

// line builds a command line for cmd: its positional arguments, then
// the given flags.
func line(cmd string, flags ...string) []string {
	args := []string{cmd}
	for range commands[cmd].args {
		args = append(args, "fig6")
	}
	return append(args, flags...)
}

func parseQuiet(args []string) error {
	_, err := parse(args, io.Discard)
	return err
}

// TestFlagsFollowUsage holds each subcommand's flag set to the usage
// text: every flag listed under a command parses (every -format value
// listed, too), and every other flag any command defines is rejected
// with exit status 2.
func TestFlagsFollowUsage(t *testing.T) {
	flags, formats := usageFlags(t)
	var all []string
	for _, fs := range flags {
		all = append(all, fs...)
	}
	sort.Strings(all)
	all = slices.Compact(all)
	for name := range sample {
		if !slices.Contains(all, name) {
			t.Errorf("flag -%s is in no command's usage", name)
		}
	}
	for cmd, accepted := range flags {
		if _, ok := commands[cmd]; !ok {
			t.Fatalf("usage lists unknown command %q", cmd)
		}
		for _, name := range all {
			v, ok := sample[name]
			if !ok {
				t.Fatalf("no sample value for -%s", name)
			}
			err := parseQuiet(line(cmd, "-"+name+"="+v))
			if slices.Contains(accepted, name) {
				if err != nil {
					t.Errorf("%s -%s=%s: %v", cmd, name, v, err)
				}
			} else if err == nil || usageExit(err) != 2 {
				t.Errorf("%s accepted -%s, which its usage does not list (err %v)", cmd, name, err)
			}
		}
		for _, f := range formats[cmd] {
			if err := parseQuiet(line(cmd, "-format", f)); err != nil {
				t.Errorf("%s -format %s: %v", cmd, f, err)
			}
		}
		if err := parseQuiet(line(cmd, "-format", "xml")); err == nil {
			t.Errorf("%s accepted -format xml", cmd)
		}
	}
}

// TestCIInvocationsParse parses every rowpress command line in the CI
// workflow, so a flag the workflow relies on cannot be dropped.
func TestCIInvocationsParse(t *testing.T) {
	b, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(b), "\\\n", " ")
	n := 0
	for _, m := range regexp.MustCompile(`(?m)(?:go run \./cmd/rowpress|^\s*/tmp/rowpress) ([^\n>|&]*)`).FindAllStringSubmatch(text, -1) {
		args := shellFields(m[1])
		if err := parseQuiet(args); err != nil {
			t.Errorf("ci.yml runs `rowpress %s`: %v", m[1], err)
		}
		n++
	}
	if n < 10 {
		t.Fatalf("found only %d rowpress invocations in ci.yml", n)
	}
}

// shellFields splits a command line on spaces, honouring single and
// double quotes.
func shellFields(s string) []string {
	var out []string
	for _, m := range regexp.MustCompile(`'[^']*'|"[^"]*"|\S+`).FindAllString(s, -1) {
		out = append(out, strings.Trim(m, `'"`))
	}
	return out
}

// TestCommandLineShape covers the positional grammar: help exits 0 for
// every command, a missing or extra positional argument and an unknown
// command exit 2, and the parsed values land where the command reads
// them.
func TestCommandLineShape(t *testing.T) {
	for cmd := range commands {
		if err := parseQuiet([]string{cmd, "-h"}); !errors.Is(err, flag.ErrHelp) || usageExit(err) != 0 {
			t.Errorf("%s -h: %v", cmd, err)
		}
		if err := parseQuiet(append(line(cmd), "extra")); err == nil || usageExit(err) != 2 {
			t.Errorf("%s accepted a stray argument (err %v)", cmd, err)
		}
	}
	for _, args := range [][]string{nil, {"bogus"}, {"run"}, {"run", "-scale", "0.1"}, {"compare", "a"}} {
		if err := parseQuiet(args); err == nil || usageExit(err) != 2 {
			t.Errorf("%q accepted (err %v)", args, err)
		}
	}
	c, err := parse([]string{"compare", "fig6~1", "fig6~0", "-gate", "determinism", "-format", "json"}, io.Discard)
	if err != nil || !slices.Equal(c.args, []string{"fig6~1", "fig6~0"}) || c.gate != "determinism" || c.format != "json" {
		t.Fatalf("compare parsed as %+v (err %v)", c, err)
	}
	if c, err := parse([]string{"loadtest"}, io.Discard); err != nil || c.scale != 0 || c.seed != 1 || c.format != "text" {
		t.Fatalf("loadtest defaults %+v (err %v): an unset -scale must leave the load test's default", c, err)
	}
	if c, err := parse([]string{"run", "fig6"}, io.Discard); err != nil || c.scale != 1 || c.options().Scale != 1 {
		t.Fatalf("run defaults %+v (err %v)", c, err)
	}
}
