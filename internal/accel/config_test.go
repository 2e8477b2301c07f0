package accel

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"shogun/internal/gen"
	"shogun/internal/pattern"
	"shogun/internal/trace"
)

func TestConfigRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 7
	cfg.PE.Width = 4
	cfg.EnableMerging = true
	cfg.Tree.BunchesPerDepth = 2
	// A live tracer saves as "Tracer": null, which strict loading must
	// still accept.
	cfg.Tracer = trace.NewSummary()
	if err := SaveConfig(path, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPEs != 7 || got.PE.Width != 4 || !got.EnableMerging || got.Tree.BunchesPerDepth != 2 || got.Tracer != nil {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Scheme != SchemeShogun {
		t.Fatalf("scheme = %q", got.Scheme)
	}
}

func TestLoadConfigLayersDefaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "partial.json")
	if err := os.WriteFile(path, []byte(`{"Scheme":"fingers","NumPEs":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumPEs != 3 {
		t.Fatalf("NumPEs = %d", cfg.NumPEs)
	}
	// Unspecified fields fall back to Table 3 defaults.
	if cfg.PE.Width != 8 || cfg.PE.IUs != 24 || cfg.L2.SizeKB != 1024 {
		t.Fatalf("defaults not layered: %+v", cfg.PE)
	}
	// The loaded config must actually run.
	g := gen.Clique(10)
	s, _ := pattern.Build(pattern.Triangle())
	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != 120 {
		t.Fatalf("count = %d", res.Embeddings)
	}
}

func TestLoadConfigErrors(t *testing.T) {
	if _, err := LoadConfig("/does/not/exist.json"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	// Loading is strict: a misspelled key, top-level or nested, must fail
	// rather than leave the default in place, and so must trailing data.
	for name, body := range map[string]string{
		"malformed JSON":   "{nope",
		"misspelled key":   `{"NumPE": 3}`,
		"misspelled field": `{"PE": {"Widht": 4}}`,
		"trailing data":    `{"NumPEs": 3} {"NumPEs": 4}`,
	} {
		bad := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(bad, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadConfig(bad); err == nil {
			t.Errorf("%s accepted: %s", name, body)
		}
	}
}

// TestLoadConfigRejectsRemovedField loads a -dumpconfig file written by
// an older build whose Config had one more field (the run-time
// event-queue selector). The stale key must fail the load by name, and
// the same dump without it must load.
func TestLoadConfigRejectsRemovedField(t *testing.T) {
	path := filepath.Join("testdata", "dump_with_event_queue.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump map[string]json.RawMessage
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	var stale []string
	for k := range dump {
		if _, ok := reflect.TypeOf(Config{}).FieldByName(k); !ok {
			stale = append(stale, k)
		}
	}
	if len(stale) != 1 {
		t.Fatalf("dump keys with no Config field: %v, want exactly one", stale)
	}
	if _, err := LoadConfig(path); err == nil || !strings.Contains(err.Error(), strconv.Quote(stale[0])) {
		t.Fatalf("old dump: err = %v, want an unknown-field error naming %q", err, stale[0])
	}
	delete(dump, stale[0])
	fresh, err := json.Marshal(dump)
	if err != nil {
		t.Fatal(err)
	}
	fixed := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(fixed, fresh, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(fixed)
	if err != nil {
		t.Fatalf("old dump without %q: %v", stale[0], err)
	}
	if cfg.NumPEs != 4 {
		t.Fatalf("NumPEs = %d, want 4 from the dump", cfg.NumPEs)
	}
}
