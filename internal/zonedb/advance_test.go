package zonedb

import (
	"reflect"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
)

// sealedDB is a database sealed through day 10 for every fact: the next
// Close of a later day, given in-range events, is an advance of it.
func sealedDB() *DB {
	db := New()
	db.DomainAdded("com", "a.com", d(1))
	db.DelegationAdded("com", "a.com", "ns1.x.net", d(1))
	db.GlueAdded("net", "ns1.x.net", d(2))
	db.DomainAdded("org", "b.org", d(3))
	db.DelegationAdded("org", "b.org", "ns1.x.net", d(3))
	db.Close(d(10))
	return db
}

// TestAdvanceStamp pins what Close stamps on a plain dated advance: the
// parent's close day and the keys the epoch's events wrote, sorted and
// without repeats, whatever the order and however often they were written.
func TestAdvanceStamp(t *testing.T) {
	db := sealedDB()
	if c := db.View().Advance(); c != nil {
		t.Fatalf("first Close after bulk events into a fresh DB is an advance: %+v", c)
	}

	db.DelegationRemoved("org", "b.org", "ns1.x.net", d(11)) // removed, and re-added the same day
	db.DelegationAdded("org", "b.org", "ns1.x.net", d(11))
	db.DelegationAdded("com", "a.com", "ns2.x.net", d(12))
	db.DelegationAdded("com", "a.com", "ns2.x.net", d(12)) // duplicate: changes nothing, records nothing
	db.DomainAdded("com", "c.com", d(12))
	db.DomainRemoved("com", "c.com", d(12)) // added and removed the same day
	db.GlueRemoved("net", "ns1.x.net", d(13))
	db.GlueRemoved("net", "ns9.x.net", d(13)) // never present: changes nothing
	db.Close(d(13))

	want := &Change{
		ParentClose: d(10),
		Edges:       []Edge{{"a.com", "ns2.x.net"}, {"b.org", "ns1.x.net"}},
		Domains:     []dnsname.Name{"c.com"},
		Glue:        []dnsname.Name{"ns1.x.net"},
	}
	if got := db.View().Advance(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Advance = %+v, want %+v", got, want)
	}

	// An epoch with no events is an advance that wrote nothing.
	db.Close(d(15))
	if got := db.View().Advance(); !reflect.DeepEqual(got, &Change{ParentClose: d(13)}) {
		t.Fatalf("empty epoch: Advance = %+v", got)
	}

	// An empty database sealed by Close is a parent like any other.
	empty := New()
	empty.Close(d(5))
	empty.DomainAdded("com", "a.com", d(6))
	empty.Close(d(6))
	if got := empty.View().Advance(); got == nil || got.ParentClose != d(5) || len(got.Domains) != 1 {
		t.Fatalf("first facts after an empty sealed DB: Advance = %+v", got)
	}
}

// TestAdvancePoisoned walks every way an epoch stops being a plain dated
// advance. Each case starts from sealedDB, must publish a view that
// reports no Advance, and says whether a following in-range epoch is an
// advance again — which it is exactly when the poisoned view was itself
// sealed through one day for every fact.
func TestAdvancePoisoned(t *testing.T) {
	// archived is the database saved and loaded back: tables from bytes,
	// which say nothing of how far their facts were sealed.
	archived := func(db *DB) *DB {
		out, err := ReadSegment(segmentBytes(t, db.View()))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cases := []struct {
		name string
		// poison publishes at least one epoch and returns the day the
		// database is closed at afterwards.
		poison    func(db *DB) dates.Day
		nextAgain bool
	}{
		{"back-dated event", func(db *DB) dates.Day {
			db.DomainAdded("com", "late.com", d(10))
			db.Close(d(11))
			return d(11)
		}, true},
		{"future-dated event", func(db *DB) dates.Day {
			db.DomainAdded("com", "early.com", d(13))
			db.Close(d(12))
			return d(12)
		}, false},
		{"removal dated past the close day", func(db *DB) dates.Day {
			db.DelegationRemoved("com", "a.com", "ns1.x.net", d(13))
			db.Close(d(11))
			return d(11)
		}, false},
		{"Close with the same day", func(db *DB) dates.Day {
			db.Close(d(10))
			return d(10)
		}, true},
		{"Close with an earlier day", func(db *DB) dates.Day {
			db.Close(d(9))
			return d(9)
		}, false},
		{"CloseZones with ragged ends", func(db *DB) dates.Day {
			db.CloseZones(map[dnsname.Name]dates.Day{"com": d(12), "org": d(11), "net": d(12)})
			return d(12)
		}, false},
		{"CloseZones, then Close", func(db *DB) dates.Day {
			db.CloseZones(map[dnsname.Name]dates.Day{"com": d(12), "org": d(11), "net": d(12)})
			db.Close(d(13))
			return d(13)
		}, true},
		{"Adopt of a sealed database", func(db *DB) dates.Day {
			db.Adopt(sealedDB())
			return d(10)
		}, true},
		{"Adopt of a database written since its Close", func(db *DB) dates.Day {
			other := sealedDB()
			other.DomainAdded("com", "pending.com", d(11))
			db.Adopt(other)
			return d(10)
		}, false},
		{"Adopt of an archive read back", func(db *DB) dates.Day {
			db.Adopt(archived(db))
			return d(10)
		}, false},
		{"Adopt of a shard projection", func(db *DB) dates.Day {
			db.Adopt(db.View().FilterShard(0, 2))
			return d(10)
		}, false},
		{"absorb", func(db *DB) dates.Day {
			other := New()
			other.DomainAdded("biz", "z.biz", d(4))
			db.absorb(other)
			db.Close(d(11))
			return d(11)
		}, true},
		{"absorb of events past the close day", func(db *DB) dates.Day {
			other := New()
			other.DomainAdded("biz", "z.biz", d(14))
			db.absorb(other)
			db.Close(d(11))
			return d(11)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := sealedDB()
			closed := tc.poison(db)
			if c := db.View().Advance(); c != nil {
				t.Fatalf("poisoned epoch reports an advance: %+v", c)
			}
			db.DomainAdded("com", "next.com", closed+1)
			db.Close(closed + 1)
			c := db.View().Advance()
			if got := c != nil; got != tc.nextAgain {
				t.Fatalf("next epoch: advance = %v, want %v", got, tc.nextAgain)
			}
			if c != nil && (c.ParentClose != closed || !reflect.DeepEqual(c.Domains, []dnsname.Name{"next.com"})) {
				t.Fatalf("next epoch: Advance = %+v", c)
			}
		})
	}
}

// TestBulkIngestRetainsNoChange: events into a database whose last
// published view is not sealed — a fresh one above all — are not
// recorded anywhere.
func TestBulkIngestRetainsNoChange(t *testing.T) {
	db := New()
	for i := 0; i < 100; i++ {
		db.DomainAdded("com", "a.com", d(i))
		db.DomainRemoved("com", "a.com", d(i))
	}
	if db.gen.change != nil {
		t.Fatalf("fresh DB is recording its events: %+v", db.gen.change)
	}
	ing := NewIngester()
	for _, s := range series("net", 3, map[dnsname.Name][]dnsname.Name{"c.net": {"ns9.x.net"}}) {
		if err := ing.AddSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	out := ing.Finish()
	if out.gen.change != nil || out.View().Advance() != nil {
		t.Fatal("snapshot ingest left a change behind")
	}
}
