package dzdbapi

import (
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/zonedb"
)

// writeDeltasPage renders a /v1/deltas page as writeJSON would, without
// reflection or the re-scan SetIndent costs: the feed's pages are its
// largest JSON bodies, and all but a few bytes of them are names and days
// that need no escaping.
func writeDeltasPage(w http.ResponseWriter, resp *DeltasResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(appendDeltasPage(nil, resp))
}

// appendDeltasPage appends the bytes json.Encoder writes for resp, with
// SetIndent("", "  ") and its trailing newline, to b.
func appendDeltasPage(b []byte, resp *DeltasResponse) []byte {
	b = append(b, "{\n  \"epoch\": "...)
	b = strconv.AppendUint(b, resp.Epoch, 10)
	b = append(b, ",\n  \"first_day\": "...)
	b = appendDay(b, resp.FirstDay)
	b = append(b, ",\n  \"close_day\": "...)
	b = appendDay(b, resp.CloseDay)
	b = append(b, ",\n  \"deltas\": "...)
	switch {
	case resp.Deltas == nil:
		b = append(b, "null"...)
	case len(resp.Deltas) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range resp.Deltas {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendDayDelta(b, &resp.Deltas[i])
		}
		b = append(b, "\n  ]"...)
	}
	if resp.NextCursor != "" {
		b = append(b, ",\n  \"next_cursor\": "...)
		b = appendString(b, resp.NextCursor)
	}
	return append(b, "\n}\n"...)
}

// appendDayDelta appends one day of the page, an element of "deltas", at
// its indent of four spaces.
func appendDayDelta(b []byte, d *DayDeltaJSON) []byte {
	b = append(b, "\n    {\n      \"day\": "...)
	b = appendDay(b, d.Day)
	b = appendEdges(b, "edges_added", d.EdgesAdded)
	b = appendEdges(b, "edges_removed", d.EdgesRemoved)
	b = appendNames(b, "domains_added", d.DomainsAdded)
	b = appendNames(b, "domains_removed", d.DomainsRemoved)
	b = appendNames(b, "glue_added", d.GlueAdded)
	b = appendNames(b, "glue_removed", d.GlueRemoved)
	b = append(b, ",\n      \"changes\": "...)
	b = strconv.AppendInt(b, int64(d.Changes), 10)
	return append(b, "\n    }"...)
}

// appendEdges appends an omitempty list of edges as a member of a day.
func appendEdges(b []byte, key string, edges []zonedb.Edge) []byte {
	if len(edges) == 0 {
		return b
	}
	b = appendKey(b, key)
	for i, e := range edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n        {\n          \"domain\": "...)
		b = appendString(b, string(e.Domain))
		b = append(b, ",\n          \"ns\": "...)
		b = appendString(b, string(e.NS))
		b = append(b, "\n        }"...)
	}
	return append(b, "\n      ]"...)
}

// appendNames appends an omitempty list of names as a member of a day.
func appendNames(b []byte, key string, names []dnsname.Name) []byte {
	if len(names) == 0 {
		return b
	}
	b = appendKey(b, key)
	for i, n := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n        "...)
		b = appendString(b, string(n))
	}
	return append(b, "\n      ]"...)
}

func appendKey(b []byte, key string) []byte {
	b = append(b, ",\n      \""...)
	b = append(b, key...)
	return append(b, "\": ["...)
}

func appendDay(b []byte, d dates.Day) []byte {
	return append(d.AppendTo(append(b, '"')), '"')
}

// appendString appends s as a JSON string, as encoding/json writes it:
// as is between quotes when no byte of it needs escaping (printable
// ASCII other than the quote, the backslash and the HTML characters
// json escapes by default), through json.Marshal otherwise.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
