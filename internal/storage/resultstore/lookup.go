package resultstore

import (
	"fmt"
	"sort"
	"strings"
)

// AmbiguousError reports a scenario query that matched more than one
// stored cell key. Matches are the keys, sorted; Error lists every
// candidate with its hash so the user can pick one exactly.
type AmbiguousError struct {
	Query   string
	Matches []string
}

func (e *AmbiguousError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %q matches %d scenarios:", e.Query, len(e.Matches))
	for _, key := range e.Matches {
		fmt.Fprintf(&b, "\n  %s  %s", Hash(key), key)
	}
	b.WriteString("\nuse the full key or scenario hash to select one")
	return b.String()
}

// Resolve maps a scenario query to the one cell key of a complete run
// it names. An exact cell key or exact scenario hash always wins, even
// when it is also a substring of other keys — the escape hatch for
// prefixy key spaces. Otherwise the query matches as a substring of
// either the key or the hash; more than one hit is an *AmbiguousError,
// zero hits an error naming the query. A complete run that does not
// read fails the lookup.
func (st *Store) Resolve(query string) (string, error) {
	runs, err := st.Runs()
	if err != nil {
		return "", err
	}
	keys := map[string]bool{}
	for _, run := range runs {
		_, cells, err := st.readCells(run)
		if err != nil {
			return "", err
		}
		for _, c := range cells {
			keys[c.key] = true
		}
	}
	var subs []string
	for key := range keys {
		hash := Hash(key)
		if key == query || hash == query {
			return key, nil
		}
		if strings.Contains(key, query) || strings.Contains(hash, query) {
			subs = append(subs, key)
		}
	}
	switch len(subs) {
	case 0:
		return "", fmt.Errorf("no scenario matches %q", query)
	case 1:
		return subs[0], nil
	}
	sort.Strings(subs)
	return "", &AmbiguousError{Query: query, Matches: subs}
}
