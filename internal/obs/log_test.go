package obs

import (
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"INFO":  slog.LevelInfo,
		"warn":  slog.LevelWarn,
		"error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) should fail")
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var sb strings.Builder
	lg, err := NewLogger(&sb, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hidden")
	lg.Info("visible", "job_id", "j-000001")
	line := strings.TrimSpace(sb.String())
	if strings.Count(line, "\n") != 0 {
		t.Fatalf("want exactly one log line, got %q", sb.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("json log line %q: %v", line, err)
	}
	if rec["msg"] != "visible" || rec["job_id"] != "j-000001" {
		t.Errorf("log record: %v", rec)
	}

	sb.Reset()
	lg, err = NewLogger(&sb, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hidden")
	lg.Warn("shown")
	if !strings.Contains(sb.String(), "msg=shown") || strings.Contains(sb.String(), "hidden") {
		t.Errorf("text log filtering: %q", sb.String())
	}

	if _, err := NewLogger(&sb, "info", "xml"); err == nil {
		t.Error("xml format should fail")
	}
	if _, err := NewLogger(&sb, "loud", "text"); err == nil {
		t.Error("bad level should fail")
	}
}
