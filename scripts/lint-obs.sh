#!/bin/sh
# lint-obs.sh — ban bare stdlib printing, package-level http helpers,
# exported global bool switches, hand-rolled document growth in the peer layer, lock hand-offs from
# library code, requests built or sent past the peer's one wire boundary,
# a read router in front of a peer,
# exported mutable globals in the peer layer, package-level tables or
# locks in library code, product calls of the
# reference hash, a second benchmark pipeline beside benchmark/, a
# node-pair subsumption memo, a document version or committed
# sterile-call gate written outside its one writer, a journal that
# records what exists instead of what grew, an experiment harness beside
# the claims tests, map assignments on any evaluator's row path,
# encoding/xml in product code, a freshness filter after a join, a
# graft record encoded twice, a tree in the delta anchor cache, an
# index built outside its one constructor site, a document encoded
# outside the served-bytes memo, a second load driver beside the
# benchmark's fleet-serve workload, a second replication dialect, a
# second read endpoint, a merge outside the engine's one merge step, and
# a service capability read outside the stack AddService resolves.
#
# Library layers must log through the *slog.Logger they are handed (see
# internal/obs): a bare log.Printf or fmt.Println in internal/ writes to
# a global destination the embedding process cannot redirect, filter or
# level. Test files are exempt (t.Log exists, but a quick println in a
# test hurts nobody), as are the cmds (they own the process's stderr and
# build the logger in the first place).
#
# Usage: scripts/lint-obs.sh  (run from the repo root; make vet-obs)
set -eu

# Strings and comments can mention the banned calls (this file's own doc
# does); strip line comments before matching so only code triggers.
bad=$(grep -rn --include='*.go' -E 'log\.(Print|Printf|Println|Fatal|Fatalf|Fatalln|Panic|Panicf|Panicln)\(|fmt\.(Print|Println|Printf)\(' internal/ \
    | grep -v '_test\.go:' \
    | grep -vE ':[0-9]+:[[:space:]]*//' \
    || true)

if [ -n "$bad" ]; then
    echo "vet-obs: bare log/fmt printing in library code (use the slog.Logger threaded via internal/obs):" >&2
    echo "$bad" >&2
    exit 1
fi

# Outbound HTTP from library code must go through a constructed request
# (peer.Client / obs traceparent injection), never the package-level
# http.Get / http.Post / http.PostForm helpers: those use the global
# default client (no timeout) and silently drop the trace context, so a
# call made through them falls out of every cross-peer trace.
badhttp=$(grep -rn --include='*.go' -E 'http\.(Get|Post|PostForm|Head)\(' internal/ \
    | grep -v '_test\.go:' \
    | grep -vE ':[0-9]+:[[:space:]]*//' \
    || true)

if [ -n "$badhttp" ]; then
    echo "vet-obs: package-level http helpers in library code (build the request and inject trace context; see peer.Client):" >&2
    echo "$badhttp" >&2
    exit 1
fi

# A behaviour switch must not live in hidden global state: an exported
# package-level bool in library code can be flipped by anyone, from
# anywhere, while evaluations are in flight (the shape the old
# subsume.Naive toggle had). Options belong on the value they configure;
# oracles belong in packages only tests import.
badswitch=$(find internal -name '*.go' ! -name '*_test.go' -exec awk '
    FNR == 1 { invar = 0 }
    /^var[[:space:]]*\($/ { invar = 1; next }
    /^\)/ { invar = 0 }
    {
        decl = ""
        if ($0 ~ /^var[[:space:]]+[A-Z]/) { decl = $0; sub(/^var[[:space:]]+/, "", decl) }
        else if (invar && $0 ~ /^[[:space:]]+[A-Z]/) { decl = $0; sub(/^[[:space:]]+/, "", decl) }
        if (decl ~ /^[A-Za-z0-9_]+[[:space:]]+bool([[:space:]]|$)/ ||
            decl ~ /^[A-Za-z0-9_]+[[:space:]]*=[[:space:]]*(true|false)([[:space:]]|$)/)
            printf "%s:%d:%s\n", FILENAME, FNR, $0
    }' {} +)

if [ -n "$badswitch" ]; then
    echo "vet-obs: exported package-level bool in library code (a behaviour switch as global state; make it a parameter or a test-only oracle):" >&2
    echo "$badswitch" >&2
    exit 1
fi
# A document grows in one place: core.System.Append / Restore (over
# subsume.Graft), which keep digests, reduced flags, stamps, versions and
# the index right. A hand-rolled copy of that step — a raw child append
# followed by InvalidateDigestAll, ReduceInPlace or Union, and Touch — is
# where stale digests come from; none of those calls belongs in non-test
# internal/peer.
badgrow=$(grep -rn --include='*.go' -E 'InvalidateDigest|subsume\.ReduceInPlace|subsume\.Union|\.Touch\(' internal/peer/ \
    | grep -v '_test\.go:' \
    | grep -vE ':[0-9]+:[[:space:]]*//' \
    || true)

if [ -n "$badgrow" ]; then
    echo "vet-obs: hand-rolled document growth in internal/peer (use core.System.Append / Restore):" >&2
    echo "$badgrow" >&2
    exit 1
fi
# A lock is released by the code that took it. Handing one to another
# component to release and re-take around its own blocking work — a
# sync.Locker field, a deferred re-Lock — only holds while exactly one
# holder is in flight (the peer's RemoteService gate was that); code that
# must let others in while it waits holds the read side of the system's
# lock instead (core.System.View). The cmds are covered too.
badhandoff=$(grep -rn --include='*.go' -E 'defer [^ ]*\.Lock\(\)|^[[:space:]]+[A-Za-z0-9_]+[[:space:]]+sync\.Locker([[:space:]]|$)' internal/ cmd/ \
    | grep -v '_test\.go:' \
    | grep -vE ':[0-9]+:[[:space:]]*//' \
    || true)

if [ -n "$badhandoff" ]; then
    echo "vet-obs: lock hand-off (a deferred re-Lock or a sync.Locker field) in library code (hold the system's read side, core.System.View):" >&2
    echo "$badhandoff" >&2
    exit 1
fi
# A peer serves the documents it holds; nothing in front of it forwards
# reads for documents it does not. A read proxy over a hash ring
# partitions no storage (each peer still loads, sweeps and journals every
# document it is given) and is a second way out beside Client.call;
# partitioning, if it comes, is a placement that evaluation respects.
badroute=$( { find internal cmd -name '*.go' ! -name '*_test.go'; ls *.go | grep -v '_test\.go$'; } \
    | xargs grep -HnF -e NewRing -e NewRouter -e X-Axml-Forwarded -e peer.route. \
        -e shard-self -e shard-peer -e DefaultVirtualNodes \
    || true)

if [ -n "$badroute" ]; then
    echo "vet-obs: a read router or ring in front of a peer (a peer serves the documents it holds; replicate with Mirror):" >&2
    echo "$badroute" >&2
    exit 1
fi
# A peer has one way out: Client.call builds every outbound request (the
# traceparent choke point) and sends it, on a client Peer.remote picked.
# A request built or sent anywhere else in non-test internal/peer skips
# the peer's WithClient / WithLimits and falls out of the trace (the
# mirror and publisher bugs of earlier releases). sync.Once has a Do too;
# none is in use here.
badwire=$(find internal/peer -name '*.go' ! -name '*_test.go' -exec awk '
    FNR == 1 { fn = "" }
    /^func / { fn = $0 }
    /^[[:space:]]*\/\// { next }
    (/http\.NewRequest(WithContext)?\(/ || /\.Do\(/) && fn !~ /^func \(c \*Client\) call\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    ' {} +)

if [ -n "$badwire" ]; then
    echo "vet-obs: outbound request built or sent outside Client.call in internal/peer (use Client.call on Peer.remote):" >&2
    echo "$badwire" >&2
    exit 1
fi
# The peer layer keeps no exported mutable global: a package-level var
# anyone can assign (the old DefaultClient, the old MaxWireBytes) is
# configuration no Open option, test or race detector sees. Sentinel
# errors (Err*) are the exception; limits are constants or options.
badexportvar=$(find internal/peer -name '*.go' ! -name '*_test.go' -exec awk '
    FNR == 1 { invar = 0 }
    /^var[[:space:]]*\($/ { invar = 1; next }
    /^\)/ { invar = 0 }
    /^var[[:space:]]+[A-Z]/ && $2 !~ /^Err/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    invar && /^[[:space:]]+[A-Z]/ && $1 !~ /^Err/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    ' {} +)

if [ -n "$badexportvar" ]; then
    echo "vet-obs: exported package-level var in internal/peer (make it a const, an Open option or a field):" >&2
    echo "$badexportvar" >&2
    exit 1
fi
# No package-level table or lock in library code: a var whose
# declaration makes a map or holds a sync value is state every system in
# the process shares and no one frees (the old tree.Intern symbol table
# kept every data value a peer ever handled). Per-system state lives on
# the value that owns it. The one shared value left, peer.defaultClient,
# is an *http.Client bounded by its transport's pool (DESIGN.md).
badglobal=$(find internal -name '*.go' ! -name '*_test.go' -exec awk '
    FNR == 1 { invar = 0 }
    /^var[[:space:]]*\($/ { invar = 1; next }
    /^\)/ { invar = 0 }
    /^[[:space:]]*\/\// { next }
    (/^var[[:space:]]/ || (invar && /^[[:space:]]/)) && /make\(|map\[|sync\./ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    ' {} +)

if [ -n "$badglobal" ]; then
    echo "vet-obs: a package-level table or lock in library code (a var that makes a map or holds a sync value is process-wide state; keep it on the value that owns it):" >&2
    echo "$badglobal" >&2
    exit 1
fi
# A state has one wire name: the memoized tree.Digest (peer digestHex).
# tree.CanonicalHash is the never-memoized reference tests and the
# benchmark compare Digest against — a product caller re-hashes a whole
# document per request and forks the name (the old docDigest).
badhash=$(grep -rn --include='*.go' -E 'CanonicalHash\(' internal/ cmd/ \
    | grep -v '_test\.go:' \
    | grep -v '^internal/tree/hash\.go:' \
    | grep -vE ':[0-9]+:[[:space:]]*//' \
    || true)

if [ -n "$badhash" ]; then
    echo "vet-obs: tree.CanonicalHash called from product code (call Digest; CanonicalHash is the tests' reference):" >&2
    echo "$badhash" >&2
    exit 1
fi
# One benchmark pipeline: the program BENCHMARK.json names (benchmark/).
# Committed numbers from one run outside it (BENCH_*.json), converters
# for them (scripts/bench-*.sh), machine-readable LOADGEN result lines
# printed for such a converter, and a make recipe writing a JSON file
# are how the retired go-test trajectory worked; none may grow back.
badbench=$( { find . \( -path ./benchmark -o -path ./.bench_build -o -path ./.git \) -prune -o -name 'BENCH_*.json' -print
    find scripts -name 'bench-*.sh'
    grep -rn --include='*.go' -E '"LOADGEN ' cmd/ internal/ | grep -v '_test\.go:'
    awk '/^\t/ && /\.json([[:space:]]|$)/ && /(>|tee )/ { printf "Makefile:%d:%s\n", FNR, $0 }' Makefile
    } || true)

if [ -n "$badbench" ]; then
    echo "vet-obs: a second benchmark pipeline beside benchmark/ (measure through benchmark/run.sh; go test -bench output is not committed):" >&2
    echo "$badbench" >&2
    exit 1
fi
# Subsumption keeps no per-query node-pair memo: in a tree a pair is
# reached only through its unique parent pair, so a memo only allocates
# (one entry per pair: the O(k²) the replication path used to pay). The
# definitional oracle keeps its own; nothing else may grow one back.
badmemo=$(grep -rn --include='*.go' -F 'map[[2]*tree.Node]' internal/ cmd/ *.go \
    | grep -v '_test\.go:' \
    | grep -v '^internal/subsume/oracle/' \
    | grep -vE ':[0-9]+:[[:space:]]*//' \
    || true)

if [ -n "$badmemo" ]; then
    echo "vet-obs: a node-pair memo (map[[2]*tree.Node]) outside internal/subsume/oracle (subsumption asks each pair once; see internal/subsume):" >&2
    echo "$badmemo" >&2
    exit 1
fi
# The committed sterile-call gate is sound on two invariants: a document
# version moves only through bumpVersion (every growth, every Touch —
# which restamps), so equal versions mean equal documents; and a call's
# committed gate is written only in engine.commit, the firing path's
# merge step, after the merge of the answer it gates ran. Copy may seed
# a fork's versions.
badgate=$(find internal -name '*.go' ! -name '*_test.go' -exec awk '
    /^func / { fn = $0 }
    /^[[:space:]]*\/\// { next }
    /docVersion\[[^]]*\][[:space:]]*([-+]?=[^=]|\+\+|--)/ && fn !~ /^func \(s \*System\) (bumpVersion|Copy)\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    /\.gate\[[^]]*\][[:space:]]*=[^=]/ && fn !~ /^func \(e \*engine\) commit\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    ' {} +)

if [ -n "$badgate" ]; then
    echo "vet-obs: a document version written outside System.bumpVersion / Copy, or a committed gate written outside engine.commit, the firing path's merge step:" >&2
    echo "$badgate" >&2
    exit 1
fi
# The journal records what grew, not what exists. core hands the mutation
# hook each growth from the four places a document changes (appendAt,
# Touch, Restore's adoptions, AddDocument); the peer writes a whole
# document state only in the hook's whole-document branch (a by-hand
# edit, an added document), and its snapshot marshals the live roots
# instead of a deep copy.
badjournal=$( {
    find internal/core -name '*.go' ! -name '*_test.go' -exec awk '
        /^func / { fn = $0 }
        /^[[:space:]]*\/\// { next }
        /onMutate\(/ && fn !~ /^func \(s \*System\) (appendAt|Touch|Restore|AddDocument)\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
        ' {} +
    find internal/peer -name '*.go' ! -name '*_test.go' -exec awk '
        /^func / { fn = $0 }
        /^[[:space:]]*\/\// { next }
        /MarshalDocRecord\(/ && $0 !~ /^func MarshalDocRecord\(/ && fn !~ /^func \(p \*Peer\) journalGrowth\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
        FILENAME ~ /\/durable\.go$/ && /\.Copy\(\)/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
        ' {} +
    } || true)

if [ -n "$badjournal" ]; then
    echo "vet-obs: a growth reported outside appendAt / Touch / Restore / AddDocument, a whole-document journal record outside the mutation hook, or a deep copy in durable.go (journal what grew; snapshot the live roots):" >&2
    echo "$badjournal" >&2
    exit 1
fi
# The paper's claims are tests (claims_test.go): each TestClaim… asserts
# its shape and checks its table in EXPERIMENTS.md, and -update rewrites
# the tables. A harness package or binary printing them beside the tests,
# or product code that knows about EXPERIMENTS.md, is the hand-copied
# pipeline that drifted; neither may grow back.
badclaims=$( {
    for d in internal/bench cmd/axml-experiments; do
        if [ -e "$d" ]; then echo "$d/"; fi
    done
    grep -rln --include='*.go' -F 'EXPERIMENTS.md' . | grep -v '_test\.go$' | grep -v '^\./\.bench_build/'
    } || true)

if [ -n "$badclaims" ]; then
    echo "vet-obs: an experiment harness beside claims_test.go, or EXPERIMENTS.md named in non-test Go (claims are TestClaim… tests; regenerate with go test -run TestClaim -update .):" >&2
    echo "$badclaims" >&2
    exit 1
fi
# The join runs over rows: a query's variables are numbered slots, a
# partial result holds one bound document node per slot in a row from the
# evaluation's slab, and dedup and join keys are slot encodings hashed
# from a reused buffer. Every body evaluator joins those rows through
# query.Plan: the query matcher, pathexpr's NFA-path matcher and regular's
# vertex matcher bind through pattern.Row.Bind and deduplicate through
# pattern.Distinct. The name-keyed Assignment is only pattern.Match's
# result. A map assignment, a map copy or a string-keyed map inside the row
# matcher (internal/pattern/row.go and the plan) or the query's fold and
# step is the per-bind copying that was half of tc-fixpoint's allocations;
# an Assignment, BindAtom, NameKeys, a private graph assignment (gAsn), a
# string-keyed map or a generic fold in pathexpr's or regular's matcher or
# step functions is a second partial-result type beside the row. The
# per-document baselines (map[string]uint64, read once per atom step, not
# per row) are the one string-keyed map the query fold may read.
badjoinmap=$( {
    find internal/pattern internal/query -name '*.go' ! -name '*_test.go' -exec awk '
        /^func / { fn = $0 }
        /^[[:space:]]*\/\// { next }
        { line = $0; gsub(/map\[string\]uint64/, "", line) }
        line !~ /Assignment|Stamped|\.Copy\(\)|map\[string\]/ { next }
        FILENAME ~ /\/row\.go$/ { printf "%s:%d:%s\n", FILENAME, FNR, $0; next }
        fn ~ /^func (\([^)]*\) )?(plan|anchorMarking|MatchRows|MatchDelta|MatchOld|HasDelta|delta|chain|Rows|join|holds|fold|Answers|bodyRows|newPlan|source|order|distinctHeads)[[(]/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
        ' {} +
    find internal/pathexpr internal/regular -name '*.go' ! -name '*_test.go' -exec awk '
        FNR == 1 || /^(type|var|const) / { fn = "" }
        /^func / { fn = $0 }
        /^[[:space:]]*\/\// { next }
        !/Assignment|BindAtom|NameKeys|gAsn|map\[string\]|query\.Fold\[/ { next }
        fn ~ /^func (\([^)]*\) )?(match[A-Za-z0-9_]*|bind[A-Za-z0-9_]*|dedup[A-Za-z0-9_]*|node|children|path|subtree|Snapshot|SnapshotQuery|QFinite|body(Rows|Assignments)|evalBody)[[(]/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
        ' {} +
    } )

if [ -n "$badjoinmap" ]; then
    echo "vet-obs: a map assignment, map copy or string-keyed map in the row matcher or the query fold, or a second partial-result type in pathexpr's or regular's matcher or step (join pattern.Row slots through query.Plan):" >&2
    echo "$badjoinmap" >&2
    exit 1
fi
# The wire has one codec (internal/peer/codec.go): an append-encoder and a
# scanner for the closed ax: vocabulary. encoding/xml is its oracle in
# the differential and fuzz tests; imported by product code it is a
# second codec beside the one recovery and serving run, and the reflective
# tokenizer recovery stopped paying for.
badxmlcodec=$(grep -rn --include='*.go' -E '^[[:space:]]*(import[[:space:]]+)?([A-Za-z_.]+[[:space:]]+)?"encoding/xml"' . \
    | grep -v '_test\.go:' \
    | grep -v '^\./\.bench_build/' \
    || true)

if [ -n "$badxmlcodec" ]; then
    echo "vet-obs: encoding/xml imported by product code (the wire codec is internal/peer/codec.go; encoding/xml is the tests' oracle):" >&2
    echo "$badxmlcodec" >&2
    exit 1
fi
# Evaluation is semi-naive inside the join: with a baseline, query's
# delta rules join each atom's fresh rows (pattern's MatchDelta) against
# the others' old (MatchOld) or all rows, and the merge gate asks
# HasDelta. A Row's New flag is the matcher's own bookkeeping; read or
# set in an evaluator, it is the filter after the join that built every
# old row only to drop it (SnapshotSince's and hasNewMatch's before the
# delta rules).
badnewfilter=$(grep -rnE --include='*.go' '\.New([^A-Za-z0-9_(]|$)' internal/query internal/core internal/pathexpr internal/regular \
    | grep -v '_test\.go:' \
    | grep -vE ':[0-9]+:[[:space:]]*//' \
    || true)

if [ -n "$badnewfilter" ]; then
    echo "vet-obs: a row's New flag read or set in an evaluator (join the delta rules: pattern's MatchDelta / MatchOld / HasDelta):" >&2
    echo "$badnewfilter" >&2
    exit 1
fi
# One encoding per growth: the mutation hook (Peer.mutated) encodes each
# growth once, through marshalGraftRecord, and the journal and the delta
# log keep the same bytes. A second call site, or a graft step appended
# outside the encoder, is a second encoding of the same growth.
badgraftenc=$(find internal/peer -name '*.go' ! -name '*_test.go' -exec awk '
    /^func / { fn = $0 }
    /^[[:space:]]*\/\// { next }
    /(^|[^A-Za-z])marshalGraftRecord\(/ && fn !~ /^func marshalGraftRecord\(|^func \(p \*Peer\) mutated\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    /Digest\[:graftDigestLen\]\.\.\./ && fn !~ /^func marshalGraftRecord\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    ' {} +)

if [ -n "$badgraftenc" ]; then
    echo "vet-obs: a graft record encoded outside the mutation hook (marshalGraftRecord in Peer.mutated):" >&2
    echo "$badgraftenc" >&2
    exit 1
fi
# Log answers replay the origin's graft log: the anchor cache maps a
# digest to a growth count and holds no tree, and handleDoc neither
# checks an anchor tree against the live one nor diffs them. A tree in
# the cache's types, a Copy in its methods, or Subsumed / PruneSince in
# handleDoc is the deep-copied anchor growing back.
badanchor=$( {
    awk '
        /^type (deltaAnchors|docLog|anchor) struct/ { intype = 1 }
        intype && /^}/ { intype = 0 }
        /^func / { fn = $0 }
        /^[[:space:]]*\/\// { next }
        intype && /tree\./ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
        fn ~ /^func \(da \*deltaAnchors\)/ && /\.Copy\(\)|tree\./ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
        ' internal/peer/delta.go
    awk '
        /^func / { fn = $0 }
        /^[[:space:]]*\/\// { next }
        fn ~ /^func \(p \*Peer\) handleDoc\(/ && /Subsumed\(|PruneSince\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
        ' internal/peer/peer.go
    } )

if [ -n "$badanchor" ]; then
    echo "vet-obs: a tree in the delta anchor cache, or an anchor check / diff in handleDoc (anchors are digest -> growth count; answers replay the graft log):" >&2
    echo "$badanchor" >&2
    exit 1
fi
# A document's index is installed in one place, core.System.reindex, and
# built by the first match that reads it (pattern.Index is lazy): a
# document nobody matches never pays for one. A pattern.NewIndex call
# elsewhere — in Restore, in recovery, in the peer — is an index per load
# creeping back. A query plan's own index over a tree no document index
# covers (query's plan.source) is the one other site.
badindexbuild=$(find . \( -path ./.git -o -path ./.bench_build \) -prune -o -name '*.go' ! -name '*_test.go' -exec awk '
    /^func / { fn = $0 }
    /^[[:space:]]*\/\// { next }
    /pattern\.NewIndex\(/ && fn !~ /^func \(s \*System\) reindex\(|^func \(pl \*plan\) source\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    ' {} +)

if [ -n "$badindexbuild" ]; then
    echo "vet-obs: pattern.NewIndex called outside core's System.reindex (install an index through reindex; the first match builds it):" >&2
    echo "$badindexbuild" >&2
    exit 1
fi
# A document state is encoded once per state: the peer's memo fills it
# (memo.doc for /axml/doc's 200 answers, memo.snapshot for
# the snapshot writer) and the mutation hook drops it. A MarshalTree or
# encoder.doc call elsewhere in non-test internal/peer re-encodes an
# unchanged document per read; MarshalDocRecord, the journal's
# whole-document record, is the one other writer.
badreencode=$(find internal/peer -name '*.go' ! -name '*_test.go' -exec awk '
    /^func / { fn = $0 }
    /^[[:space:]]*\/\// { next }
    /(^|[^A-Za-z])MarshalTree\(|[^A-Za-z]e\.doc\(/ && fn !~ /^func (MarshalTree|MarshalDocRecord)\(|^func \(m \*memo\) (doc|snapshot)\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    ' {} +)

if [ -n "$badreencode" ]; then
    echo "vet-obs: a document encoded outside the served-bytes memo (serve memo.doc's bytes; MarshalDocRecord is the journal's one other writer):" >&2
    echo "$badreencode" >&2
    exit 1
fi
# One load harness: benchmark/'s fleet-serve workload drives the served
# fleet, and internal/loadgen keeps only the arrival schedule it replays
# (schedule.go). Another file there, or a package or command outside
# benchmark/ importing it, is the retired second driver (scenario runner,
# in-process fleet, capacity search, load CLI) growing back.
badloadgen=$( {
    find internal/loadgen -name '*.go' ! -name '*_test.go' ! -name 'schedule.go'
    grep -rl --include='*.go' -F '"axml/internal/loadgen"' . | grep -v '_test\.go$' | grep -v '^\./benchmark/' | grep -v '^\./\.bench_build/'
    } || true)

if [ -n "$badloadgen" ]; then
    echo "vet-obs: a second load driver (internal/loadgen holds only schedule.go, imported only by benchmark/; drive a fleet through go run ./benchmark -workload fleet-serve):" >&2
    echo "$badloadgen" >&2
    exit 1
fi
# One replication dialect: a read of /axml/doc answers 304, 226 (the
# log) or 200, and a push is anchored at the digest of its subscription's
# view. The patch
# mode on the wire (mode "delta", ax:patch), the push hash chain and its
# mode header, and the anchor-cache knob that could switch delta serving
# off are gone; none may grow back in non-test Go.
badreplication=$(grep -rn --include='*.go' -E 'chainDigest|X-Axml-Push-Mode|ax:patch|DeltaPatch|WithDeltaAnchors' internal/ cmd/ \
    | grep -v '_test\.go:' \
    | grep -vE ':[0-9]+:[[:space:]]*//' \
    || true)

if [ -n "$badreplication" ]; then
    echo "vet-obs: a second replication dialect (the patch wire mode, the push hash chain or the delta-anchor knob; reads answer 304 | 226 | 200, pushes anchor by view digest):" >&2
    echo "$badreplication" >&2
    exit 1
fi
# One read exchange: GET /axml/doc (handleDoc) answers a plain read 200,
# a read conditional on the current state 304, and one that accepts the
# log 226 with the graft records since its anchor. The retired delta
# endpoint, its ax:delta envelope and their codec may not grow back in
# non-test Go, and the memo's document bytes and the anchor cache's log
# are read in handleDoc alone: another handler reading them is a second
# read endpoint.
badread=$( {
    grep -rn --include='*.go' -E 'PathDelta|/axml/delta|ax:delta|handleDelta|UnmarshalDelta' internal/ cmd/ \
        | grep -v '_test\.go:' \
        | grep -vE ':[0-9]+:[[:space:]]*//' \
        || true
    find internal/peer -name '*.go' ! -name '*_test.go' -exec awk '
        /^func / { fn = $0 }
        /^[[:space:]]*\/\// { next }
        /\.memo\.doc\(|\.anchors\.(since|remember)\(/ && fn !~ /^func \(p \*Peer\) handleDoc\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
        ' {} +
    } )

if [ -n "$badread" ]; then
    echo "vet-obs: a second read endpoint (GET /axml/doc answers 304 | 226 | 200 in handleDoc; the delta endpoint and its ax:delta envelope are gone):" >&2
    echo "$badread" >&2
    exit 1
fi
# One firing path: every call the engine fires is evaluated by its
# group's one evaluation (engine.fireGroup), and every answer is merged by
# its one merge step (engine.commit: the stop and detachment checks, the
# committed gate, the step accounting), whatever the semantics that chose
# the call — a fair run, lazy evaluation, fire-once or ShortestRun pick
# calls through RunOptions.Relevant. A second .evaluate( or .merge( call
# site in non-test internal/core is a firing path that skips those.
badfire=$(find internal/core -name '*.go' ! -name '*_test.go' -exec awk '
    /^func / { fn = $0 }
    /^[[:space:]]*\/\// { next }
    /\.merge\(/ && fn !~ /^func \(e \*engine\) commit\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    /\.evaluate\(/ && fn !~ /^func \(e \*engine\) fireGroup\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    ' {} +)

if [ -n "$badfire" ]; then
    echo "vet-obs: a call evaluated outside engine.fireGroup or merged outside engine.commit in internal/core (choose calls with RunOptions.Relevant and run the engine):" >&2
    echo "$badfire" >&2
    exit 1
fi
# A service's capabilities are resolved once, when AddService registers
# its stack (core's resolve): the innermost query, the token source and
# whether every layer batches. System.Declarative answers "what query
# defines this service?", and invokeBatch is the one place a middleware
# layer, which has no record, asks the layer it wraps. A type assertion
# to *QueryService, Versioned or BatchService, or an Innermost walk,
# anywhere else in non-test Go is the second capability read that let a
# wrapper make a query a black box to some analyses and not others.
badcapability=$( { find internal cmd -name '*.go' ! -name '*_test.go'; ls *.go | grep -v '_test\.go$'; } | xargs awk '
    /^func / { fn = $0 }
    /^[[:space:]]*\/\// { next }
    (/\.\(\*?(core\.)?(QueryService|Versioned|BatchService)\)/ || /(^|[^A-Za-z0-9_])[Ii]nnermost\(/) && !(FILENAME ~ /internal\/core\/service\.go$/ && fn ~ /^func (resolve|invokeBatch)\(/) { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    ')

if [ -n "$badcapability" ]; then
    echo "vet-obs: a service capability read outside the resolver (read the stack AddService resolved: System.Declarative, or core's resolve / invokeBatch):" >&2
    echo "$badcapability" >&2
    exit 1
fi
echo "vet-obs: ok"
