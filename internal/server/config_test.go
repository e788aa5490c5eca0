package server

import (
	"log"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"vitri"
)

// TestZeroConfigMatchesGodoc checks every field of Config at its zero
// value against the default its godoc names, plus the request mode's: an
// absent mode is Composed. A field added without a row here fails the
// test.
func TestZeroConfigMatchesGodoc(t *testing.T) {
	c := Config{}.withDefaults()
	rows := map[string]struct {
		got, want any
	}{
		"DefaultK":           {c.DefaultK, 10},
		"MaxK":               {c.MaxK, 1000},
		"MaxInFlight":        {c.MaxInFlight, 64},
		"RequestTimeout":     {c.RequestTimeout, time.Duration(0)}, // no deadline
		"RetryAfter":         {c.RetryAfter, time.Second},
		"MaxBodyBytes":       {c.MaxBodyBytes, int64(32 << 20)},
		"CheckpointEvery":    {c.CheckpointEvery, 0}, // no automatic checkpoints
		"CheckpointCooldown": {c.CheckpointCooldown, 30 * time.Second},
		"ErrorLog":           {c.ErrorLog, log.Default()},
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		row, ok := rows[f.Name]
		if !ok {
			t.Errorf("Config.%s has no zero-value row", f.Name)
			continue
		}
		delete(rows, f.Name)
		if row.got != row.want {
			t.Errorf("zero Config.%s becomes %v, godoc says %v", f.Name, row.got, row.want)
		}
	}
	for name := range rows {
		t.Errorf("row %s names no Config field", name)
	}
	if mode, ok := parseMode(httptest.NewRecorder(), ""); !ok || mode != vitri.Composed {
		t.Errorf("absent request mode parses to %v (ok=%v), want %v", mode, ok, vitri.Composed)
	}
}
