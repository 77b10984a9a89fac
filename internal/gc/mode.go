package gc

import (
	"fmt"
	"strings"
)

// Mode selects which collectors run, matching the paper's three compared
// configurations (§5): GT, GT+TG, and HG (=GT+TG+SI). ModeNone disables
// collection entirely (the Figure 2 overflow demonstration).
type Mode int

// The compared garbage collection configurations.
const (
	ModeNone Mode = iota
	ModeGT
	ModeGTTG
	ModeHG
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeGT:
		return "GT"
	case ModeGTTG:
		return "GT+TG"
	case ModeHG:
		return "HG"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode reads a -gc flag value.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "none":
		return ModeNone, nil
	case "gt":
		return ModeGT, nil
	case "gttg", "gt+tg":
		return ModeGTTG, nil
	case "hg", "hybrid":
		return ModeHG, nil
	}
	return ModeNone, fmt.Errorf("unknown -gc mode %q", s)
}

// Periods masks the base periods down to the collectors the mode enables.
func (m Mode) Periods(base Periods) Periods {
	switch m {
	case ModeGT:
		return Periods{GT: base.GT}
	case ModeGTTG:
		return Periods{GT: base.GT, TG: base.TG}
	case ModeHG:
		return base
	default:
		return Periods{}
	}
}
