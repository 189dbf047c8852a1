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

func TestProp1Experiment(t *testing.T) {
	got := capture(prop1)
	if !strings.Contains(got, "ratio") || !strings.Contains(got, "0.9") {
		t.Errorf("prop1 output:\n%s", got)
	}
}

func TestProp3Experiment(t *testing.T) {
	got := capture(prop3)
	if !strings.Contains(got, "ratio") {
		t.Errorf("prop3 output:\n%s", got)
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

func TestScalingExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep in -short mode")
	}
	got := capture(scaling)
	if !strings.Contains(got, "scatter-tiers") || !strings.Contains(got, "reduce-chain") {
		t.Errorf("scaling output:\n%s", got)
	}
}

func TestSessionExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("session sweep in -short mode")
	}
	got := capture(sessionExp)
	if strings.Contains(got, "MISMATCH") {
		t.Fatalf("session sweep diverged from cold solves:\n%s", got)
	}
	if !strings.Contains(got, "solver session:") {
		t.Errorf("session output:\n%s", got)
	}
}
