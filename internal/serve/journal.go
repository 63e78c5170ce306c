package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"os"
	"sync"

	"repro/internal/classify"
)

// journalVersion stamps every record; a future incompatible layout
// bumps it and old records are ignored on replay instead of misread.
const journalVersion = 1

// record is one write-ahead journal line. Two operations cover the job
// lifecycle:
//
//   - "accept": the job exists — its payload is durable on disk and the
//     server has promised (202) to produce exactly one verdict for it.
//     Written before the upload response; a crash after this point
//     resumes the job.
//   - "done": the verdict — a classification (status "done", with the
//     race verdicts, the rendered report and verdict counts) or a
//     quarantine (status "quarantined", with the typed error's text).
//     A job with a done record is never re-analyzed, which is what
//     makes restart duplicate-free.
//
// A crash can tear at most the final line (appends are sequential); a
// torn or otherwise undecodable line is skipped and counted, never
// fatal — losing a done record costs one re-analysis, not correctness,
// because equal inputs produce equal verdicts.
type record struct {
	V       int    `json:"v"`
	Op      string `json:"op"`
	ID      string `json:"id"`
	Tenant  string `json:"tenant,omitempty"`
	Label   string `json:"label,omitempty"`
	SHA     string `json:"sha256,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Status  string `json:"status,omitempty"`
	Benign  int    `json:"benign,omitempty"`
	Harmful int    `json:"harmful,omitempty"`
	Report  string `json:"report,omitempty"`
	Err     string `json:"err,omitempty"`
	// Cls is a done job's classification without its instance samples:
	// the verdicts a restarted server merges into /v1/report, which
	// renders no samples. With them a browse-sized record is ten times
	// larger, and every record is fsynced. Records written without Cls
	// restore a job that counts in the report but adds no races.
	Cls *classify.Classification `json:"cls,omitempty"`
}

// withoutSamples copies c's races without their instance samples.
func withoutSamples(c *classify.Classification) *classify.Classification {
	out := &classify.Classification{Races: make([]*classify.RaceResult, len(c.Races))}
	for i, r := range c.Races {
		rr := *r
		rr.Samples = nil
		out.Races[i] = &rr
	}
	return out
}

// journal is the append-only job log. Appends are serialized and
// fsynced: an acknowledged accept or done record survives kill -9.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal replays the journal at path (returning every decodable
// record in order and the count of skipped undecodable lines) and opens
// it for appending.
func openJournal(path string) (*journal, []record, int, error) {
	var recs []record
	skipped := 0
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		for sc.Scan() {
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.V != journalVersion || r.ID == "" {
				skipped++
				continue
			}
			recs = append(recs, r)
		}
		if err := sc.Err(); err != nil && !errors.Is(err, io.EOF) {
			// An unreadable tail (torn final write, media error) degrades
			// to losing the records after it, not to a dead service.
			skipped++
		}
		f.Close()
	} else if !os.IsNotExist(err) {
		return nil, nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	return &journal{f: f}, recs, skipped, nil
}

// append writes one record durably (write + fsync) before returning.
func (j *journal) append(r record) error {
	line, err := encodeRecord(r)
	if err != nil {
		return err
	}
	return j.write(line)
}

// encodeRecord renders one record as a journal line.
func encodeRecord(r record) ([]byte, error) {
	r.V = journalVersion
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// write appends one encoded line durably (write + fsync).
func (j *journal) write(line []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("serve: journal closed")
	}
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close stops the journal; subsequent appends fail.
func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
