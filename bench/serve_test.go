package main

import (
	"strings"
	"testing"
)

func expectedValue(rank uint64) []byte { return appendValue(nil, rank) }

func getBlock(rank uint64) []byte { return append(expectedValue(rank), '\r', '\n') }

func TestCheckGetReply(t *testing.T) {
	if err := checkGetReply("VALUE k5 0 64", getBlock(5), "END", 5); err != nil {
		t.Fatalf("a correct reply was rejected: %v", err)
	}
	short := getBlock(5)[:40]
	cases := []struct {
		name   string
		header string
		block  []byte
		end    string
	}{
		{"short payload", "VALUE k5 0 64", short, "END"},
		{"wrong key echo", "VALUE k6 0 64", getBlock(5), "END"},
		{"another key's value", "VALUE k5 0 64", getBlock(6), "END"},
		{"wrong length field", "VALUE k5 0 63", getBlock(5), "END"},
		{"refusal", "SERVER_ERROR overloaded: shed (retryable)", getBlock(5), "END"},
		{"no END", "VALUE k5 0 64", getBlock(5), "VALUE k5 0 64"},
		{"no CRLF after the value", "VALUE k5 0 64", append(expectedValue(5), 'x', 'y'), "END"},
	}
	for _, c := range cases {
		if err := checkGetReply(c.header, c.block, c.end, 5); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestCheckSetvReply(t *testing.T) {
	if v, err := checkSetvReply("STORED 1 17 4", 7, 3); err != nil || v != 4 {
		t.Fatalf("a correct ack was rejected: %d, %v", v, err)
	}
	cases := []struct{ name, line string }{
		{"non-monotone version", "STORED 1 18 3"},
		{"version going back", "STORED 1 18 2"},
		{"wrong shard", "STORED 0 18 4"},
		{"plain STORED", "STORED"},
		{"refusal", "SERVER_ERROR journal write failed (retryable)"},
		{"not a number", "STORED 1 x 4"},
	}
	for _, c := range cases {
		if _, err := checkSetvReply(c.line, 7, 3); err == nil {
			t.Errorf("%s: %q accepted", c.name, c.line)
		}
	}
}

func TestCheckGetvReply(t *testing.T) {
	if err := checkGetvReply("VER k7 1 4", 7, 4); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"VER k7 1 3", "VER k7 0 4", "VER k8 1 4", "SERVER_ERROR draining"} {
		if err := checkGetvReply(line, 7, 4); err == nil {
			t.Errorf("%q accepted for k7 at version 4", line)
		}
	}
}

func TestExpectedValueMatchesDaemonShape(t *testing.T) {
	v := string(expectedValue(12345))
	if len(v) != valueLen || !strings.HasPrefix(v, "rank=12345;") || strings.Trim(v[len("rank=12345;"):], ".") != "" {
		t.Errorf("expectedValue(12345) = %q", v)
	}
}
