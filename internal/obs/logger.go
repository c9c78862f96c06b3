package obs

import (
	"io"
	"log/slog"
	"os"
	"strings"
)

// LevelFromEnv reads OBS_LOG_LEVEL (debug, info, warn, error) and
// returns the matching slog level, defaulting to Info.
func LevelFromEnv() slog.Level {
	switch strings.ToLower(os.Getenv("OBS_LOG_LEVEL")) {
	case "debug":
		return slog.LevelDebug
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// NewLogger returns a structured logger tagged with the component name,
// writing text lines to stderr at the OBS_LOG_LEVEL level.
func NewLogger(component string) *slog.Logger {
	return NewLoggerAt(os.Stderr, LevelFromEnv(), component)
}

// NewLoggerAt is NewLogger with an explicit sink and level — what tests
// and embedded uses want.
func NewLoggerAt(w io.Writer, level slog.Level, component string) *slog.Logger {
	h := slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})
	return slog.New(h).With("component", component)
}
