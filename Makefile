GO ?= go

.PHONY: build loc test race vet examples lint stress stress-dora fuzz-smoke bench bench-json bench-wal bench-lock bench-dora bench-wire bench-btree bench-smoke

build:
	$(GO) build ./...

# loc prints the non-test Go line counts the line gates (ROADMAP 22)
# go by: internal/lock, internal/core, the two together, internal/wal,
# and the whole module. It prints and gates nothing.
loc:
	@n() { find "$$@" -name '*.go' ! -name '*_test.go' -not -path './.git/*' -exec cat {} + | wc -l; }; \
	l=$$(n internal/lock); c=$$(n internal/core); \
	echo "non-test Go lines: internal/lock $$l, internal/core $$c, lock+core $$((l + c)), internal/wal $$(n internal/wal), repo $$(n .)"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/invariant/... ./internal/latch/... ./internal/lock/... ./internal/core/... ./internal/buffer/... ./internal/wal/... ./internal/obs/... ./internal/server/... ./internal/dora/... ./internal/sync2/... ./internal/btree/... ./internal/heap/... ./internal/workload/...

# stress-dora runs the DORA mixed-path stress tests under the race
# detector: fast-path and cross-partition transactions, the latter in
# both key orders, over few executors with tiny queue depths, every one
# of which must commit; opposite-order claims; and engine close under
# load.
stress-dora:
	$(GO) test -race -count=1 -run 'TestStressMixedPaths|TestOppositeOrderCrossPartitionCommits|TestCloseUnderLoad' ./internal/dora/

vet:
	$(GO) vet ./...

# examples builds each program under examples/ and runs it; every one
# exits non-zero (log.Fatal) when a check it makes fails.
EXAMPLES := quickstart banking telecom analytics wire
examples:
	$(GO) build -o bin/examples/ $(addprefix ./examples/,$(EXAMPLES))
	set -e; for x in $(EXAMPLES); do echo "== $$x"; ./bin/examples/$$x; done

# lint runs hydra-vet (internal/analysis: lockscope, atomicmix,
# phasebal) over the whole module, in-package test files included. It
# exits non-zero on any finding not suppressed by a justified
# //hydra:vet:ignore directive.
lint:
	$(GO) build -o bin/hydra-vet ./cmd/hydra-vet
	./bin/hydra-vet -tests ./...

# stress runs the tests with the hydradebug runtime assertions compiled
# in: every ranked lock (invariant.Mutex/RWMutex) and page latch checks
# its acquisition against the latch hierarchy, and pooled objects their
# single ownership (the lock heads' spare lists, WAL encode buffers, Txn
# handles, DORA contexts). It is the one latch-order checker (DESIGN.md
# §6). dora, server, workload and staged drive the engine through its
# scan callbacks, whose contract — fn must not call the engine — the
# ranked partition.mu, the Coarse index's Tree.mu and the Crabbing
# index's rank check at the entry of every tree operation enforce
# (TestScanCallbackMustNotCallTheEngine). TestCheckpointDuringTraffic
# then runs 300 times: checkpoints under insert traffic, a crash, and a
# restart that must redo every committed insert. It guards the
# dirty-page table's recLSN (a lower bound each writer notes under the
# page's X latch before it appends its record); without it about one
# run in thirty lost an insert under the tag's timing.
# TestCreateTableDuringCheckpoints then runs 100 times: tables are
# created while others take inserts, checkpoints run back to back and a
# small pool evicts, and after a crash restart must find every table and
# row. A create is a logged system action applied to page 0, which the
# checkpoint rewrites in place; this races the two. With it runs
# TestRacingCreatesOfOneName: no engine lock orders creations, only page
# 0's X latch, under which a create checks its name, logs its record
# and publishes the catalog; creators race one name under lookups,
# index statistics and checkpoints, and exactly one may win, allocating
# the store's only two new pages, its index published with it. The snapshot
# stress tests and TestStampPrecedesFill then run three more times: no
# lock orders MVCC commits, only the rule that the log stores a commit
# record's version stamp before the record joins the filled prefix the
# snapshot floor follows, and these are the tests that race it. With
# them runs TestFrontierUnderRaces: no lock guards that filled prefix
# either, nor the reservation (one add on a word that issues the LSN
# and a ticket modulo twice the marks), and writers completing out of
# order, some waiting for a ring of done marks smaller than their
# number, must leave it rising along record boundaries to the log's
# end. And TestDeadLogEndsEveryReservation: a reservation that fails
# after its add leaves a gap, so reservations waiting for ring room or
# for the frontier's head must end when the device fails or Close
# runs, and the device must hold whole records below the gap. And
# TestWaitUnderRaces: no lock
# guards the log's one wait on the durable frontier either, only a
# lock-free arrival list that the flusher drains; 32 goroutines commit
# through a 4 KiB ring, so committers and ring-full inserters park
# together, and a device that fails mid-run poisons the log: no wait may
# return before the frontier passes its record, and none may hang. And
# TestPinUnderRaces: no lock
# orders a snapshot pin against the floor or the oldest-pin mirror
# either, only the pin's re-check (Engine.pin), and its oracle fails a
# prune whose horizon passes a pin that passed that re-check and is not
# past MaxSnapshotAge. Under the tag it checks the latch order of the
# pin and raise paths and catches E22's seed E with the pin's
# oldestSnap test dropped; it then runs three times under the race
# detector, whose timing is where it catches seed E's other forms. With it run the TestExpiry tests: a snapshot past
# MaxSnapshotAge is expired by its age alone, and a read, a scan chunk
# or an SI commit checks that age after it has read, never only before;
# each test expires the snapshot inside that window (a recycled slot,
# before a read's chain resolve, between two scan chunks, before an SI
# commit's validation) while the GC prunes what it would read, and the
# race detector watches those paths. And three times
# TestManagerConcurrentStress and TestIntentCounterUnderRaces: no lock
# guards a table's intent word either, only a CAS that takes a count
# while the word's head bit is clear and a head that sets the bit under
# its partition mutex before it judges the counts; IX writers, IS
# readers, an escalating loader, a Scan's S and new tables (which grow
# the word slice) race those steps, and the oracle fails any instant at
# which a table holds incompatible modes, counted and granted together;
# deadlock detection must break every cycle, so a lock timeout fails it.
# With them three times TestDeadlockDetection, the three count-edge
# tests (a Scan draining a counted writer, counted writers that scan, an
# upgrader ahead of a queue) and the TestSchedule single-goroutine
# schedules: a lock request is decided under its partition mutex —
# granted, queued with its waits-for edges, or refused as the deadlock
# victim before it queues — so the request that closes a cycle must be
# refused at once; the goroutine tests race those decisions under the
# race detector, and the schedules step through each one. Last,
# the root-split stress runs under the race detector, at the full depth
# the tag's run stops short of: writers grow an empty tree, in both
# modes, three levels deep (the root splits in place as a leaf, then as
# an interior node) under readers' Gets and short scans, and the root
# keeps its page (about a minute).
stress:
	$(GO) test -tags hydradebug -count=1 ./internal/invariant/... ./internal/latch/... ./internal/buffer/... ./internal/wal/... ./internal/core/... ./internal/sync2/... ./internal/lock/... ./internal/btree/... ./internal/heap/... ./internal/dora/... ./internal/server/... ./internal/workload/... ./internal/staged/...
	$(GO) test -tags hydradebug -count=300 -run TestCheckpointDuringTraffic ./internal/core/
	$(GO) test -tags hydradebug -count=100 -run 'TestCreateTableDuringCheckpoints|TestRacingCreatesOfOneName' ./internal/core/
	$(GO) test -tags hydradebug -count=3 -run 'TestStressSnapshotScanNoTearing|TestStressSnapshotNeverSeesAborted|TestSIHotKeyStress|TestStampPrecedesFill|TestFrontierUnderRaces|TestDeadLogEndsEveryReservation|TestWaitUnderRaces|TestPinUnderRaces' ./internal/core/ ./internal/wal/
	$(GO) test -race -count=3 -run 'TestPinUnderRaces|TestExpiry|TestManagerConcurrentStress|TestIntentCounterUnderRaces|TestDeadlockDetection|TestScanDrainingACountedWriterDeadlocks|TestCountedWritersThatScanDeadlock|TestUpgraderAheadOfAQueueDeadlocks|TestSchedule' ./internal/core/ ./internal/lock/
	$(GO) test -race -count=1 -run 'TestRootSplitUnderTraffic|TestConcurrentMixedWorkload' ./internal/btree/

# fuzz-smoke runs the wire tokeniser's differential fuzz target for
# 20 s: FuzzDispatchLine holds nextField to the strings.Fields grammar
# the handler used to apply wherever the two are meant to agree, and
# dispatch to "no panic, the line untouched, one reply line". The
# target keeps one engine across inputs, so coverage does not repeat
# exactly and minimising an input would only burn the time. FuzzScanner
# then damages valid logs (flipped bytes, a zeroed run, a cut) for 20 s
# and holds the WAL scanner to its contract: records it returns decode
# where it says, a bad record is ErrCorrupt exactly when a valid one
# follows, SeekRecord finds the first record that decodes. Minimising
# each new input would stall the workers for most of the 20 s. FuzzPage
# last gives the page codec 20 s of 8 KiB images (raw bytes, or a valid
# heap page with flipped bytes): one that Verify accepts, and any image
# once sealed, must survive every slot accessor, Insert, Update, Delete
# and Compact without a panic, and a sealed image must verify and
# round-trip.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDispatchLine -fuzztime 20s -fuzzminimizetime 0 ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzScanner -fuzztime 20s -fuzzminimizetime 0 ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzPage -fuzztime 20s -fuzzminimizetime 0 ./internal/page/

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkLockAcquireRelease|BenchmarkCommitPipeline|BenchmarkPoolFetchParallel' -benchmem ./internal/lock/ ./internal/core/ ./internal/buffer/

# bench-json runs the full experiment suite and archives the results
# as a dated machine-readable document (schema hydra-bench/v1, see
# EXPERIMENTS.md "Machine-readable runs"). Override BENCH_SCALE=full
# for report sizing. This is the only sanctioned bench artifact path:
# CI uploads the dated BENCH_*.json; neither it nor a raw `make bench |
# tee` dump is committed (both are gitignored).
BENCH_SCALE ?= quick
bench-json:
	$(GO) run ./cmd/hydra-bench -scale $(BENCH_SCALE) -json BENCH_$$(date +%Y-%m-%d).json

# bench-wal runs the WAL flush-path benchmarks with enough iterations
# for the per-flush metrics (writes/flush, segsyncs/sync) to settle:
# the numbers cited in EXPERIMENTS.md E11 come from this target. The
# commit benchmark (syncs/commit, µs/commit, dev_prewrite_bytes on real
# files, over wal.log and over 4 MiB segments, rows of 256 B, 2 KiB and
# 4 KiB; E16) gets more iterations: its unit is one device sync. It
# fails the target when one committer pays more than one sync per
# commit, a file is extended inside a preallocated step, a flush costs
# more than one write per segment, or zeros are pre-written more than
# once per stride.
bench-wal:
	$(GO) test -run '^$$' -bench 'BenchmarkFlushWrapVectored|BenchmarkSegmentedSync|BenchmarkSegmentedWriteVec|BenchmarkLogAppendSegmented' -benchtime 200x -benchmem ./internal/wal/
	$(GO) test -run '^$$' -bench 'BenchmarkCommitFileDevice' -benchtime 5000x ./internal/wal/

# bench-lock runs the lock-manager benchmarks, including the
# distinct-name churn shape that exercises the lock heads' spare lists (the
# allocs/op and recycle-ratio figures in EXPERIMENTS.md E12 come from
# this target) and Churn500, a lone transaction's 500 rows of one
# table: ns/row and table_ops/row (E19), failing past 0.15 visits a row.
bench-lock:
	$(GO) test -run '^$$' -bench 'BenchmarkLockAcquireRelease|BenchmarkAcquireReleaseChurn' -benchtime 2s -benchmem ./internal/lock/

# bench-dora runs the DORA execution-path benchmarks: the
# single-partition fast path allocs/op and the cross-partition
# (executor claims) figures in EXPERIMENTS.md E13 come from this target.
bench-dora:
	$(GO) test -run '^$$' -bench 'BenchmarkDoraExecSingle|BenchmarkDoraExecCross' -benchtime 2s -benchmem ./internal/dora/

# bench-wire runs the wire-path benchmarks: the server's share of a
# GET and of a 100 B / 1000 B SET through dispatch (ns/op, B/op,
# allocs/op; the engine's own calls included), and load500, the bulk
# loader's BEGIN; 500 x SET; COMMIT batch through the connection handler
# over a pipe: on the memory store, and as load500/file on real files
# behind a 32-frame pool, which adds ns/row, allocs/row and the two
# counts of E18 and E19 — store_writes/page and table_ops/row — and
# fails when a loaded page is written more than 1.05 times, a loaded
# row visits the lock table more than 0.15 times (65 visits per batch:
# the loader holds its table in X from the 64th row on) or a loaded row
# allocates more than 0.10 times, counted after an untimed warm-up
# batch. Both load500
# shapes print index_descents/row and fail past 0.05: a loaded row
# enters the index at its last leaf (E20; three walks a row before).
# The figures in EXPERIMENTS.md E17 to E20 come from this target.
bench-wire:
	$(GO) test -run '^$$' -bench 'BenchmarkDispatch' -benchtime 2s -benchmem ./internal/server/

# bench-btree runs the index benchmarks over a bulk-loaded 100 000-key
# tree in both modes, ns/op and pool fetches/op: Append (the rightmost
# door: one fetch an insert whatever the height, failing past 1.05),
# InsertRandom and GetRandom (one walk: InsertRandom fails past the
# tree's height + 0.05 fetches, GetRandom above the height, i.e. when a
# probe that does not use the door pays for it, or an insert walks
# twice). E20's and E21's index figures come from here.
bench-btree:
	$(GO) test -run '^$$' -bench 'BenchmarkBTree' -benchtime 200000x ./internal/btree/

# bench-smoke compiles and runs every benchmark for a single
# iteration: it catches benchmarks that crash or no longer build
# without paying for a timed run (CI's guard against bench rot).
# ./... picks up the WAL flush benchmarks (bench_test.go) and
# bench-wire's BenchmarkDispatch too (load500 is one whole batch after
# an untimed one, and
# load500/file fails on a page written twice or a loader that keeps
# locking its table row by row or allocates past 0.10 a row — the count
# gates of E18 and E19 and the allocation gate, the first two of which
# the lock package's Churn500 repeats without the engine — and both
# load500 shapes on a row that walks the index from the root, E20's
# gate, which the btree benchmarks repeat without the engine at enough
# iterations to split leaves); the
# explicit wal run below it asserts the vectored path's counters are
# live, not just that the benchmarks compile, and that a durable commit
# on either file layout, at every row size, costs one sync, one write,
# no file extension and at most a stride of pre-written zeros per stride
# (BenchmarkCommitFileDevice fails otherwise). The final server tests
# guard the observability contract: TestEverySurfaceCarriesEveryLeaf
# fills every field of the snapshot with a distinct value and requires
# it on /stats, /metrics (one TYPE line per family) and in the text
# hydra-cli and hydra-top print; TestSurfaceKeepsParentNames holds the
# family names and /stats keys of testdata/parent_*.txt; the
# *MetricsExposition tests drive live DORA, snapshot-read and committed
# traffic and assert the values it moves. The
# accounting itself is budgeted at <=3% ns/op and zero extra allocs/op
# on the commit/lock/DORA hot paths — regressions show up in the bench
# targets above against the figures recorded in EXPERIMENTS.md.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run '^$$' -bench 'BenchmarkFlushWrapVectored|BenchmarkSegmentedSync|BenchmarkCommitFileDevice' -benchtime 20x ./internal/wal/
	$(GO) test -run '^$$' -bench 'BenchmarkAcquireReleaseChurn' -benchtime 20x ./internal/lock/
	$(GO) test -run '^$$' -bench 'BenchmarkBTree' -benchtime 2000x ./internal/btree/
	$(GO) test -run 'TestEverySurfaceCarriesEveryLeaf|TestSurfaceKeepsParentNames|MetricsExposition' -count=1 ./internal/server/
