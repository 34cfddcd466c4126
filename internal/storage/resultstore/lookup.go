package resultstore

import (
	"fmt"
	"sort"
	"strings"
)

// AmbiguousError reports a scenario query that matched more than one
// indexed scenario. Matches are sorted by cell key; Error lists every
// candidate with its hash so the user can pick one exactly.
type AmbiguousError struct {
	Query   string
	Matches []IndexEntry
}

func (e *AmbiguousError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %q matches %d scenarios:", e.Query, len(e.Matches))
	for _, m := range e.Matches {
		fmt.Fprintf(&b, "\n  %s  %s", Hash(m.Key), m.Key)
	}
	b.WriteString("\nuse the full key or scenario hash to select one")
	return b.String()
}

// Resolve maps a scenario query to a unique index entry. An exact cell
// key or exact scenario hash always wins, even when it is also a
// substring of other keys — the escape hatch for prefixy key spaces.
// Otherwise the query matches as a substring of either the key or the
// hash; more than one hit is an *AmbiguousError, zero hits an error
// naming the query.
func (st *Store) Resolve(query string) (IndexEntry, error) {
	var subs []IndexEntry
	for hash, e := range st.index {
		if e.Key == query || hash == query {
			return e, nil
		}
		if strings.Contains(e.Key, query) || strings.Contains(hash, query) {
			subs = append(subs, e)
		}
	}
	switch len(subs) {
	case 0:
		return IndexEntry{}, fmt.Errorf("no scenario matches %q", query)
	case 1:
		return subs[0], nil
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i].Key < subs[j].Key })
	return IndexEntry{}, &AmbiguousError{Query: query, Matches: subs}
}
