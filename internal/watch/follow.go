package watch

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/dates"
	"repro/internal/dzdbapi"
	"repro/internal/zonedb/delta"
)

// Follower tails a remote dzdbapi /v1/deltas feed into an Engine. It
// never loses or duplicates an alert regardless of transport faults:
// every catch-up pass asks the server for days strictly after the
// engine's last applied day, and the engine itself refuses replays
// (ErrStale), so a request that died mid-page, a retried response, or a
// restart from a checkpoint all converge on the same alert stream.
type Follower struct {
	Client *dzdbapi.Client
	Engine *Engine

	// OnAlert receives every alert in emission order.
	OnAlert func(Alert)
	// OnApplied, when set, runs after each applied day with the feed's
	// close day — the daemon hooks per-day metrics and checkpointing
	// here.
	OnApplied func(day, closeDay dates.Day, alerts int)
	// OnPass, when set, runs after every catch-up pass — successful or
	// not, including passes that applied nothing — with the engine's
	// position, the feed's close day (dates.None when the pass failed
	// before reading a page), and the pass error. The daemon hooks feed
	// lag and the feed-reachability health check here, so a stalled or
	// empty feed still moves the gauges every poll instead of freezing
	// them at the last applied day.
	OnPass func(lastApplied, closeDay dates.Day, err error)

	// PageSize is the number of days requested per page (default 365).
	PageSize int
	// Poll is the delay between catch-up passes once the feed is
	// exhausted (default 2s). In long-poll mode it is the backoff after
	// a transport failure.
	Poll time.Duration
	// Once stops after the first pass that reaches the feed's close day
	// instead of polling forever.
	Once bool

	// Mode selects the feed transport: ModePoll (default) re-requests
	// at the Poll cadence; ModeLongPoll parks one request server-side
	// (?wait=) so a caught-up follower costs one outstanding request
	// per epoch instead of a poll loop.
	Mode string
	// Wait is the long-poll hold sent as ?wait= (default 30s, at most
	// dzdbapi.MaxLongPollWait; only meaningful in ModeLongPoll). A Once
	// pass never sends it: a caught-up Once follower returns instead of
	// parking for Wait.
	Wait time.Duration

	Log *slog.Logger
}

// Feed transport modes for Follower.Mode.
const (
	ModePoll     = "poll"
	ModeLongPoll = "longpoll"
)

func (f *Follower) pageSize() int {
	if f.PageSize > 0 {
		return f.PageSize
	}
	return 365
}

func (f *Follower) poll() time.Duration {
	if f.Poll > 0 {
		return f.Poll
	}
	return 2 * time.Second
}

// wait is the hold to ask for: the server answers a longer one empty at
// its cap, which a follower could not tell from a server that ignores
// ?wait=.
func (f *Follower) wait() time.Duration {
	if f.Wait > 0 {
		return min(f.Wait, dzdbapi.MaxLongPollWait)
	}
	return 30 * time.Second
}

// Run follows the feed until ctx is done (or, with Once, until caught
// up). Transport errors that survive the client's own retry policy are
// logged and retried at the poll cadence; in Once mode they abort.
func (f *Follower) Run(ctx context.Context) error {
	for {
		passStart := time.Now()
		before := f.Engine.LastDay()
		caughtUp, closeDay, err := f.sync(ctx)
		passDur := time.Since(passStart)
		if f.OnPass != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			f.OnPass(f.Engine.LastDay(), closeDay, err)
		}
		switch {
		case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
			return err
		case err != nil && f.Once:
			return err
		case err != nil:
			if f.Log != nil {
				f.Log.Warn("delta feed pass failed; will retry", "err", err)
			}
		case caughtUp && f.Once:
			return nil
		}
		if f.Mode == ModeLongPoll && err == nil &&
			(f.Engine.LastDay() != before || passDur >= f.wait()/2) {
			// The server parked the request (or delivered work): loop
			// straight into the next long-poll. The quick-empty-return
			// case below means the server ignored ?wait (an old
			// binary), so fall back to the poll cadence rather than
			// busy-loop.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(f.poll()):
		}
	}
}

// sync performs one catch-up pass: request days after the engine's last
// applied day and walk the cursor chain until the page window is
// exhausted. It reports whether the engine reached the feed's close
// day, and the close day itself (dates.None when no page was read).
func (f *Follower) sync(ctx context.Context) (bool, dates.Day, error) {
	from := dates.None
	if last := f.Engine.LastDay(); last != dates.None {
		from = last + 1
	}
	cursor := ""
	epoch := uint64(0)
	closeDay := dates.None
	wait := time.Duration(0)
	if f.Mode == ModeLongPoll && !f.Once {
		wait = f.wait()
	}
	for {
		resp, err := f.Client.Deltas(ctx, from, cursor, f.pageSize(), wait)
		if err != nil {
			return false, closeDay, err
		}
		closeDay = resp.CloseDay
		if cursor != "" && resp.Epoch != epoch {
			// The server adopted a new archive mid-walk; the cursor
			// belongs to the old index. Restart from the engine's
			// position — nothing applied so far is lost.
			if f.Log != nil {
				f.Log.Info("feed epoch changed mid-walk; restarting pass",
					"old", epoch, "new", resp.Epoch)
			}
			return false, closeDay, nil
		}
		epoch = resp.Epoch
		if resp.FirstDay == dates.None {
			return true, closeDay, nil // sealed but empty database
		}
		for i := range resp.Deltas {
			if err := f.apply(&resp.Deltas[i].DayDelta, resp.CloseDay); err != nil {
				return false, closeDay, err
			}
		}
		if resp.NextCursor == "" {
			return f.Engine.LastDay() >= resp.CloseDay, closeDay, nil
		}
		cursor = resp.NextCursor
	}
}

func (f *Follower) apply(dd *delta.DayDelta, closeDay dates.Day) error {
	if last := f.Engine.LastDay(); last != dates.None && dd.Day <= last {
		return nil // overlap from a retried or rewound page; already applied
	}
	alerts, err := f.Engine.ApplyDay(dd)
	if err != nil {
		if errors.Is(err, ErrStale) {
			return nil
		}
		return fmt.Errorf("applying %s: %w", dd.Day, err)
	}
	if f.OnAlert != nil {
		for _, a := range alerts {
			f.OnAlert(a)
		}
	}
	if f.OnApplied != nil {
		f.OnApplied(dd.Day, closeDay, len(alerts))
	}
	return nil
}
