package sched

import (
	"testing"
	"time"
)

func at(s string) time.Time {
	t, err := time.Parse("2006-01-02 15:04", s)
	if err != nil {
		panic(err)
	}
	return t
}

func TestCronNext(t *testing.T) {
	cases := []struct {
		expr string
		from string
		want string
	}{
		{"* * * * *", "2026-08-08 10:30", "2026-08-08 10:31"},
		{"*/15 * * * *", "2026-08-08 10:31", "2026-08-08 10:45"},
		{"0 2 * * *", "2026-08-08 10:30", "2026-08-09 02:00"},
		{"30 2 * * *", "2026-08-08 01:00", "2026-08-08 02:30"},
		{"0 0 1 * *", "2026-08-08 10:30", "2026-09-01 00:00"},
		{"0 0 * * 0", "2026-08-08 10:30", "2026-08-09 00:00"}, // Aug 9 2026 is a Sunday
		{"0 0 29 2 *", "2026-08-08 10:30", "2028-02-29 00:00"},
		{"5,35 * * * *", "2026-08-08 10:06", "2026-08-08 10:35"},
		{"0 9-17 * * *", "2026-08-08 17:30", "2026-08-09 09:00"},
		{"0 0 15 * 3", "2026-08-08 00:00", "2026-08-12 00:00"}, // vixie: dom 15 OR Wednesday
	}
	for _, tc := range cases {
		c, err := ParseCron(tc.expr)
		if err != nil {
			t.Errorf("%q: %v", tc.expr, err)
			continue
		}
		if got := c.Next(at(tc.from)); !got.Equal(at(tc.want)) {
			t.Errorf("%q.Next(%s) = %s, want %s", tc.expr, tc.from, got, tc.want)
		}
	}
}

func TestCronNextIsStrictlyAfter(t *testing.T) {
	c, err := ParseCron("30 2 * * *")
	if err != nil {
		t.Fatal(err)
	}
	from := at("2026-08-08 02:30")
	if got := c.Next(from); !got.Equal(at("2026-08-09 02:30")) {
		t.Errorf("Next from an exact match = %s, want the following day", got)
	}
}

func TestCronEvery(t *testing.T) {
	c, err := ParseCron("@every 90s")
	if err != nil {
		t.Fatal(err)
	}
	from := at("2026-08-08 10:30")
	if got := c.Next(from); !got.Equal(from.Add(90 * time.Second)) {
		t.Errorf("@every 90s from %s = %s", from, got)
	}
	if c.String() != "@every 90s" {
		t.Errorf("String() = %q", c.String())
	}
}

func TestCronParseErrors(t *testing.T) {
	for _, expr := range []string{
		"",
		"* * * *",         // four fields
		"* * * * * *",     // six fields
		"60 * * * *",      // minute out of range
		"* 24 * * *",      // hour out of range
		"* * 0 * *",       // dom out of range
		"* * * 13 *",      // month out of range
		"* * * * 7",       // dow out of range
		"a * * * *",       // not a number
		"1-0 * * * *",     // inverted range
		"*/0 * * * *",     // zero step
		"@every nonsense", // bad duration
		"@every 500ms",    // below the floor
	} {
		if _, err := ParseCron(expr); err == nil {
			t.Errorf("ParseCron(%q) accepted", expr)
		}
	}
}

func TestCronUnreachable(t *testing.T) {
	c, err := ParseCron("0 0 30 2 *")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Next(at("2026-08-08 00:00")); !got.IsZero() {
		t.Errorf("unreachable expression produced %s, want the zero time", got)
	}
}
