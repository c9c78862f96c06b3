package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/daemon"
	"repro/internal/dzdbapi"
	"repro/internal/obs/health"
	"repro/internal/sim"
	"repro/internal/watch"
	"repro/internal/whois"
	"repro/internal/zonedb/delta"
	"repro/internal/zonedb/segment"
)

// TestFeedTTLCoversOnePark: a caught-up follower parks each long-poll
// for -feed-wait before the pass that refreshes the feed check ends, so
// the check must still read fresh one park (and the request's round
// trip) after its last refresh. A TTL without the park read stale for
// about 20 s of every 30 on default flags.
func TestFeedTTLCoversOnePark(t *testing.T) {
	for _, feedWait := range []time.Duration{
		30 * time.Second, // the default
		15 * time.Second,
		5 * time.Minute, // clamped to the server's cap
	} {
		park := min(feedWait, dzdbapi.MaxLongPollWait)
		r := health.NewRegistry()
		now := time.Unix(1000, 0)
		r.Now = func() time.Time { return now }
		r.Register("feed", feedTTL(park)).OK()
		now = now.Add(park + time.Second)
		if ok, sts := r.Readiness(); !ok {
			t.Errorf("feed-wait %s: not ready one park after a pass: %+v", feedWait, sts)
		}
	}
}

// TestArchiveReplaysOnce: -archive replays the saved history once and
// returns by itself, on a context nothing cancels. Its alerts are the
// engine's over the archive's delta index, and a second run from the
// checkpoint the first one wrote emits nothing.
func TestArchiveReplaysOnce(t *testing.T) {
	study, err := riskybiz.RunContext(context.Background(), riskybiz.Options{Seed: 1, DomainsPerDay: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	prefix := filepath.Join(dir, "ds")
	if err := riskybiz.SaveData(study, prefix); err != nil {
		t.Fatal(err)
	}

	db, err := segment.ReadFile(prefix + ".dzdb")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := delta.Build(db.View())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(prefix + ".whois")
	if err != nil {
		t.Fatal(err)
	}
	wh, err := whois.ReadFrom(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	eng := watch.New(wh, sim.StandardDirectory())
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for d := idx.First(); d <= idx.Last(); d++ {
		alerts, err := eng.ApplyDay(idx.Day(d))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range alerts {
			if err := enc.Encode(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !strings.Contains(want.String(), `"type":"hijacked"`) {
		t.Fatalf("the world raises no hijacked alert; pick a larger one:\n%s", want.String())
	}

	c := config{
		archive:    prefix,
		alerts:     filepath.Join(dir, "alerts.jsonl"),
		checkpoint: filepath.Join(dir, "watch.ckpt"),
	}
	replay := func() []byte {
		t.Helper()
		app := daemon.New("riskywatchd", false)
		defer app.Close()
		done := make(chan error, 1)
		go func() { done <- run(context.Background(), app, c) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("archive run: %v", err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatal("archive run did not return by itself")
		}
		b, err := os.ReadFile(c.alerts)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	if got := replay(); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("archive alerts (%d B) differ from the engine's over the delta index (%d B)", len(got), want.Len())
	}
	if st, err := os.Stat(c.checkpoint); err != nil || st.Size() == 0 {
		t.Fatalf("no checkpoint after the replay: %v", err)
	}
	if got := replay(); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("a run from the checkpoint appended %d B of alerts", len(got)-want.Len())
	}
}
