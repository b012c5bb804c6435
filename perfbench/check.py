"""Output checker for the genasmx benchmark, written apart from the mapper.

It shares no code with the program under test: PAF records are parsed
here, every ``cg:Z:`` CIGAR is replayed base by base against the reference
span and the read, and read origins are taken from the simulator's
truth-encoding read names (``read_<i>!<contig>!<pos>!<strand>``).

``python3 perfbench/check.py --self-test`` feeds the checker deliberately
corrupted records and replies and exits non-zero unless each is rejected.
"""

import random
import re
import sys
import zlib

_COMP = str.maketrans("ACGTacgtNn", "TGCAtgcaNn")


def revcomp(s):
    return s.translate(_COMP)[::-1]


def read_fasta(path):
    seqs, name, parts = {}, None, []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith(">"):
                if name is not None:
                    seqs[name] = "".join(parts)
                name, parts = line[1:].split()[0], []
            elif line:
                parts.append(line)
    if name is not None:
        seqs[name] = "".join(parts)
    return seqs


def read_fastq(path):
    """Reads in file order as (name, seq)."""
    out = []
    with open(path) as f:
        while True:
            head = f.readline()
            if not head:
                break
            seq = f.readline().rstrip("\n")
            f.readline()
            f.readline()
            out.append((head[1:].split()[0], seq))
    return out


def truth_of(name):
    """(contig, pos, strand) encoded by the simulator in the read name."""
    _, contig, pos, strand = name.split("!")
    return contig, int(pos), strand


_CIGAR = re.compile(r"(?:[1-9][0-9]*[=XIDM])+")
_CIGAR_OP = re.compile(r"([0-9]+)([=XIDM])")


def replay(fields, ref, reads):
    """Check one PAF record. Returns (aligned_read_bases, edits), or
    (0, 0) for a record without a CIGAR. Raises ValueError on a defect."""
    if len(fields) < 12:
        raise ValueError("fewer than 12 PAF fields")
    qname, qlen, qs, qe, strand, tname, tlen, ts, te, nmatch, blen = (
        fields[0], int(fields[1]), int(fields[2]), int(fields[3]), fields[4],
        fields[5], int(fields[6]), int(fields[7]), int(fields[8]),
        int(fields[9]), int(fields[10]))
    read = reads.get(qname)
    if read is None:
        raise ValueError("unknown read %s" % qname)
    contig = ref.get(tname)
    if contig is None:
        raise ValueError("unknown contig %s" % tname)
    if qlen != len(read) or tlen != len(contig):
        raise ValueError("sequence length mismatch")
    if strand not in "+-" or len(strand) != 1:
        raise ValueError("bad strand %r" % strand)
    if not (0 <= qs < qe <= qlen and 0 <= ts < te <= tlen):
        raise ValueError("coordinates out of range")
    if not 0 <= nmatch <= blen:
        raise ValueError("matches exceed block length")
    if not 0 <= int(fields[11]) <= 255:
        raise ValueError("bad MAPQ")
    cg = next((f[5:] for f in fields[12:] if f.startswith("cg:Z:")), None)
    if cg is None:
        return 0, 0
    if not _CIGAR.fullmatch(cg):
        raise ValueError("malformed CIGAR")
    query = read[qs:qe] if strand == "+" else revcomp(read[qs:qe])
    target = contig[ts:te]
    ti = qi = matches = edits = block = 0
    try:
        for num, op in _CIGAR_OP.findall(cg):
            n = int(num)
            block += n
            if op == "=":
                if target[ti:ti + n] != query[qi:qi + n]:
                    raise ValueError("'=' run does not match at target %d"
                                     % (ts + ti))
                matches += n
                ti += n
                qi += n
            elif op == "X":
                if n == 1:
                    if target[ti] == query[qi]:
                        raise ValueError("'X' matches at target %d" % (ts + ti))
                elif any(target[ti + k] == query[qi + k] for k in range(n)):
                    raise ValueError("'X' run matches at target %d"
                                     % (ts + ti))
                edits += n
                ti += n
                qi += n
            elif op == "I":
                qi += n
                edits += n
            elif op == "D":
                ti += n
                edits += n
            else:
                m = sum(x == y for x, y in zip(target[ti:ti + n],
                                               query[qi:qi + n]))
                matches += m
                edits += n - m
                ti += n
                qi += n
    except IndexError:
        raise ValueError("CIGAR runs past the aligned span") from None
    if ti != len(target) or qi != len(query):
        raise ValueError("CIGAR consumes %d/%d target and %d/%d query bases"
                         % (ti, len(target), qi, len(query)))
    if matches != nmatch or block != blen:
        raise ValueError("match count or block length disagrees with CIGAR")
    return qe - qs, edits


def check_paf(paf_bytes, ref, reads):
    """Replay every record of one pass's PAF. Returns a summary dict with
    the primary-record quality figures; raises ValueError on any defect."""
    names = [n for n, _ in reads]
    by_name = dict(reads)
    primary = {}
    aligned = edits = records = no_cigar = 0
    order = {n: i for i, n in enumerate(names)}
    last = -1
    for line in paf_bytes.decode().splitlines():
        fields = line.split("\t")
        records += 1
        bases, e = replay(fields, ref, by_name)
        idx = order[fields[0]]
        if idx < last:
            raise ValueError("records out of read order")
        last = idx
        if fields[0] in primary:
            continue
        primary[fields[0]] = fields
        if bases == 0:
            no_cigar += 1
        aligned += bases
        edits += e
    on_truth = 0
    for name, f in primary.items():
        contig, pos, strand = truth_of(name)
        ts, te = int(f[7]), int(f[8])
        if (f[5] == contig and f[4] == strand and ts < pos + int(f[1])
                and pos < te):
            on_truth += 1
    return {
        "records": records,
        "reads": len(names),
        "mapped": len(primary),
        "no_cigar": no_cigar,
        "reads_on_truth": on_truth,
        "alignment_cost_per_kb": 1000.0 * edits / aligned if aligned else 0.0,
    }


def lines_by_read(paf_bytes):
    """Each read's PAF lines (with newlines), keyed by read name."""
    out = {}
    for line in paf_bytes.splitlines(keepends=True):
        name = line.split(b"\t", 1)[0].decode()
        out[name] = out.get(name, b"") + line
    return out


def check_replies(requests, reads, per_read):
    """requests: dicts with start, count, status, crc, bytes. Every OK
    reply must be byte-identical (CRC-32 and length) to the batch
    mapper's records for the same reads. Returns the number of replies
    checked; raises ValueError on the first difference."""
    names = [n for n, _ in reads]
    checked = 0
    for r in requests:
        if r["status"] != "OK":
            continue
        want = b"".join(per_read.get(names[i], b"")
                        for i in range(r["start"], r["start"] + r["count"]))
        if zlib.crc32(want) != r["crc"] or len(want) != r["bytes"]:
            raise ValueError("reply for reads %d..%d differs from the batch "
                             "run" % (r["start"], r["start"] + r["count"] - 1))
        checked += 1
    return checked


def self_test():
    """Each corruption must be rejected; the clean inputs must pass."""
    rng = random.Random(7)
    contig = "".join(rng.choice("ACGT") for _ in range(400))
    ref = {"ctg1": contig}
    # Read from contig[100:300] with one substitution, insertion and
    # deletion; the CIGAR below is its alignment by construction.
    src = contig[100:300]
    sub = "A" if src[50] != "A" else "C"
    fwd = src[:50] + sub + src[51:120] + "G" + src[120:160] + src[161:]
    cigar = "50=1X69=1I40=1D39="
    assert len(fwd) == 200
    qname = "read_0!ctg1!100!-"
    seq = revcomp(fwd)
    reads = [(qname, seq)]
    good = [qname, "200", "0", "200", "-", "ctg1", "400", "100", "300",
            "198", "201", "60", "cg:Z:" + cigar]

    def paf(fields):
        return ("\t".join(fields) + "\n").encode()

    summary = check_paf(paf(good), ref, reads)
    if summary["reads_on_truth"] != 1:
        raise AssertionError("clean record not on truth")
    if abs(summary["alignment_cost_per_kb"] - 15.0) > 1e-9:
        raise AssertionError("wrong cost on the clean record")

    flipped = list(good)
    flipped[12] = "cg:Z:" + cigar.replace("1I", "1D", 1).replace("1D39", "1I39")
    shifted = list(good)
    shifted[7], shifted[8] = "101", "301"
    swapped = list(good)
    swapped[4] = "+"
    for label, fields in (("flipped CIGAR op", flipped),
                          ("shifted target start", shifted),
                          ("swapped strand", swapped)):
        try:
            check_paf(paf(fields), ref, reads)
        except ValueError:
            continue
        raise AssertionError("checker accepted a %s" % label)

    per_read = lines_by_read(paf(good))
    body = paf(good)
    reply = {"start": 0, "count": 1, "status": "OK",
             "crc": zlib.crc32(body), "bytes": len(body)}
    check_replies([reply], reads, per_read)
    bad = paf(good[:11] + ["59"] + good[12:])
    changed = dict(reply, crc=zlib.crc32(bad), bytes=len(bad))
    try:
        check_replies([changed], reads, per_read)
    except ValueError:
        return
    raise AssertionError("checker accepted a reply that differs from the "
                         "batch run")


if __name__ == "__main__":
    if sys.argv[1:] != ["--self-test"]:
        sys.exit("usage: check.py --self-test")
    self_test()
    print("check.py self-test: every corrupted input rejected")
