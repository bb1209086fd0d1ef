package exp

import (
	"strconv"

	"gonoc/internal/core"
	"gonoc/internal/sqlitefile"
)

// SQLiteSink archives campaign output as a queryable SQLite database:
// a `runs` table with one row per (scenario, replication) and a
// `summaries` table with one row per aggregated grid point — the same
// records the JSONL sink streams, absent statistics as NULL, but
// indexed by rowid and readable with any stock sqlite3. Rows accumulate
// in memory and the file is written on Close, so a crashed campaign
// leaves no partial archive. Equal campaigns produce byte-identical
// databases.
type SQLiteSink struct {
	path      string
	db        *sqlitefile.DB
	runs      *sqlitefile.Table
	summaries *sqlitefile.Table
}

// NewSQLiteSink returns a sink that will write path on Close
// (truncating any existing file).
func NewSQLiteSink(path string) *SQLiteSink {
	db := sqlitefile.New()
	return &SQLiteSink{
		path: path,
		db:   db,
		runs: db.CreateTable("runs",
			`CREATE TABLE runs(campaign TEXT, topo TEXT, nodes INTEGER, traffic TEXT, flit_rate REAL, rep INTEGER, seed TEXT, throughput REAL, accepted REAL, latency REAL, p95_latency REAL, hops REAL, injected INTEGER, ejected INTEGER, energy_per_packet REAL)`,
			15),
		summaries: db.CreateTable("summaries",
			`CREATE TABLE summaries(campaign TEXT, topo TEXT, nodes INTEGER, traffic TEXT, flit_rate REAL, reps INTEGER, throughput REAL, throughput_ci95 REAL, accepted REAL, latency REAL, latency_ci95 REAL, p95_latency REAL, hops REAL)`,
			13),
	}
}

// Run implements Sink.
func (s *SQLiteSink) Run(o Outcome) error {
	r := newRunRecord(o)
	s.runs.Append(
		r.Campaign, string(r.Topo), int64(r.Nodes), r.Traffic, r.FlitRate, int64(r.Rep),
		strconv.FormatUint(r.Seed, 10), r.Throughput, r.Accepted,
		sqlStat(r.Latency), sqlStat(r.P95Latency), sqlStat(r.MeanHops),
		r.Injected, r.Ejected, sqlStat(r.EnergyPerPk),
	)
	return nil
}

// Summary implements Sink.
func (s *SQLiteSink) Summary(a Aggregate) error {
	s.summaries.Append(
		a.Campaign, string(a.Topo), int64(a.Nodes), a.Traffic, a.FlitRate,
		int64(a.Reps), a.Throughput.Mean, a.Throughput.CI95, a.Accepted.Mean,
		sqlStat(core.Stat(a.Latency.Mean)), a.Latency.CI95,
		sqlStat(core.Stat(a.P95Latency.Mean)), sqlStat(core.Stat(a.MeanHops.Mean)),
	)
	return nil
}

// sqlStat is v as an SQLite value: NULL when absent.
func sqlStat(v core.Stat) any {
	if v.Absent() {
		return nil
	}
	return float64(v)
}

// Close assembles and writes the database file.
func (s *SQLiteSink) Close() error {
	return s.db.WriteFile(s.path)
}
