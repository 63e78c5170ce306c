package classify

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/hb"
)

// Mark is a developer verdict recorded after manually triaging a race.
type Mark struct {
	SiteA   string `json:"site_a"`
	SiteB   string `json:"site_b"`
	Verdict string `json:"verdict"` // "benign" or "harmful"
	Note    string `json:"note,omitempty"`
}

// DB is the persistent race database (§1): once a developer triages a
// race reported as potentially harmful and finds it benign, it is marked
// here and suppressed from future reports. Safe for concurrent use.
type DB struct {
	mu    sync.Mutex
	marks map[hb.SitePair]Mark
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{marks: make(map[hb.SitePair]Mark)}
}

// MarkBenign records a manual benign verdict.
func (db *DB) MarkBenign(sites hb.SitePair, note string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.marks[sites] = Mark{SiteA: sites.A, SiteB: sites.B, Verdict: "benign", Note: note}
}

// IsMarkedBenign reports whether a developer vetted this race as benign.
func (db *DB) IsMarkedBenign(sites hb.SitePair) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	m, ok := db.marks[sites]
	return ok && m.Verdict == "benign"
}

// Marks returns all marks sorted by site pair.
func (db *DB) Marks() []Mark {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]Mark, 0, len(db.marks))
	for _, m := range db.marks {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SiteA != out[j].SiteA {
			return out[i].SiteA < out[j].SiteA
		}
		return out[i].SiteB < out[j].SiteB
	})
	return out
}

// Save writes the database as JSON to path.
func (db *DB) Save(path string) error {
	data, err := json.MarshalIndent(db.Marks(), "", "  ")
	if err != nil {
		return fmt.Errorf("classify: encode db: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadDB reads a database written by Save. A missing file yields an empty
// database, so first runs need no setup. On any other failure — an
// unreadable file, truncated or garbage JSON — the returned database is
// still non-nil, empty, and usable alongside the error, so a caller that
// chooses to proceed degrades to "no suppressions" instead of crashing
// on a nil DB.
func LoadDB(path string) (*DB, error) {
	db := NewDB()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return db, nil
	}
	if err != nil {
		return db, err
	}
	var marks []Mark
	if err := json.Unmarshal(data, &marks); err != nil {
		return db, fmt.Errorf("classify: parse db %s: %w", path, err)
	}
	for _, m := range marks {
		db.marks[hb.MakeSitePair(m.SiteA, m.SiteB)] = m
	}
	return db, nil
}
