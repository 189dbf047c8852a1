package main

import (
	"bytes"
	"strings"
	"testing"
)

// capture redirects the report writer for the duration of fn.
func capture(fn func()) string {
	var buf bytes.Buffer
	saved := out
	out = &buf
	defer func() { out = saved }()
	fn()
	return buf.String()
}

func TestFig2Experiment(t *testing.T) {
	got := capture(fig2)
	if !strings.Contains(got, "ours:  TP = 1/2") {
		t.Errorf("fig2 output:\n%s", got)
	}
}

func TestFig3Experiment(t *testing.T) {
	got := capture(fig3)
	if !strings.Contains(got, "matchings") {
		t.Errorf("fig3 output:\n%s", got)
	}
}

func TestFig4Experiment(t *testing.T) {
	got := capture(fig4)
	if !strings.Contains(got, "no splits") {
		t.Errorf("fig4 output:\n%s", got)
	}
}

func TestFig6Experiment(t *testing.T) {
	got := capture(fig6)
	if !strings.Contains(got, "ours:  TP = 1 ") {
		t.Errorf("fig6 output:\n%s", got)
	}
}

func TestFig7Experiment(t *testing.T) {
	got := capture(fig7)
	if !strings.Contains(got, "tree(s) covering") {
		t.Errorf("fig7 output:\n%s", got)
	}
}

// convergenceRow returns the fields of the table row for K periods.
func convergenceRow(table, periods string) []string {
	for _, line := range strings.Split(table, "\n") {
		if fields := strings.Fields(line); len(fields) > 0 && fields[0] == periods {
			return fields
		}
	}
	return nil
}

func TestProp1Experiment(t *testing.T) {
	got := capture(prop1)
	if row := strings.Join(convergenceRow(got, "1000000"), " "); row != "1000000 999999 1000000 0.999999" {
		t.Errorf("prop1 K = 10^6 row %q, output:\n%s", row, got)
	}
}

func TestProp3Experiment(t *testing.T) {
	got := capture(prop3)
	if row := strings.Join(convergenceRow(got, "1000000"), " "); row != "1000000 999999 1000000 0.999999" {
		t.Errorf("prop3 K = 10^6 row %q, output:\n%s", row, got)
	}
}

func TestGossipExperiment(t *testing.T) {
	got := capture(gossipExp)
	if !strings.Contains(got, "gossip") {
		t.Errorf("gossip output:\n%s", got)
	}
}

func TestPrefixExperiment(t *testing.T) {
	got := capture(prefixExp)
	if !strings.Contains(got, "prefix") {
		t.Errorf("prefix output:\n%s", got)
	}
}
