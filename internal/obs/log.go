package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// ParseLevel maps the shared -log-level vocabulary (debug, info, warn,
// error; case-insensitive) onto slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
	}
}

// NewLogger builds a slog.Logger writing to w at the given level in the
// given format ("text" or "json"). The level/format vocabulary is shared
// by the -log-level/-log-format flags of every cmd/ binary.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

// NopLogger returns a logger that discards everything — the default
// wherever no logger was configured, so call sites never nil-check.
func NopLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }
