package accel

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// MarshalJSON-compatible notes: Config is a plain data structure except
// for the Tracer hook, which is skipped during (de)serialization.

type configJSON Config

// MarshalJSON serializes the configuration (the Tracer hook is omitted).
func (c Config) MarshalJSON() ([]byte, error) {
	cc := c
	cc.Tracer = nil
	return json.Marshal(configJSON(cc))
}

// UnmarshalJSON deserializes into the configuration, preserving any
// fields absent from the input (so LoadConfig can layer a partial file
// over scheme defaults).
func (c *Config) UnmarshalJSON(b []byte) error {
	cc := configJSON(*c)
	if err := json.Unmarshal(b, &cc); err != nil {
		return err
	}
	*c = Config(cc)
	return nil
}

// SaveConfig writes the configuration as indented JSON.
func SaveConfig(path string, cfg Config) error {
	b, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadConfig reads a configuration JSON written by SaveConfig (or by
// hand), layered on top of the scheme's defaults: absent fields keep
// their default values only if present in the file's scheme defaults —
// practically, start from `shogun -dumpconfig`, edit, reload. Decoding is
// strict: a key that names no Config field (a typo, or a field an older
// build had) is an error rather than silently keeping the default.
func LoadConfig(path string) (Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	// Determine the scheme first so defaults come from the right base.
	var probe struct {
		Scheme Scheme `json:"Scheme"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return Config{}, fmt.Errorf("accel: %s: %w", path, err)
	}
	if probe.Scheme == "" {
		probe.Scheme = SchemeShogun
	}
	// Decode into configJSON, not Config: the decoder's unknown-field
	// check does not reach inside a custom UnmarshalJSON.
	cfg := configJSON(DefaultConfig(probe.Scheme))
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("accel: %s: %w", path, err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return Config{}, fmt.Errorf("accel: %s: trailing data after the config object", path)
	}
	return Config(cfg), nil
}
