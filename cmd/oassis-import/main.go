// Command oassis-import converts an RDF N-Triples file — the export format
// of the knowledge bases the paper built on (WordNet, YAGO) — into the
// textual ontology format the oassis tools consume. rdf:type and
// rdfs:subClassOf triples become instanceOf/subClassOf facts (and the
// element order), rdfs:subPropertyOf becomes the relation order, rdfs:label
// becomes element labels, and other literal-valued triples are skipped.
//
// Gzip-compressed dumps (the form knowledge bases actually publish) are
// detected by their magic bytes and decompressed transparently; ingestion
// runs on the parallel pipeline, one parse worker per GOMAXPROCS, and
// reports wall-clock throughput.
//
// Usage:
//
//	oassis-import -in yago-slice.nt -out ontology.txt
//	GOMAXPROCS=4 oassis-import -in yago-slice.nt.gz
package main

import (
	"bufio"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"oassis"
)

func main() {
	var (
		in  = flag.String("in", "", "N-Triples input file (gzip detected automatically)")
		out = flag.String("out", "ontology.txt", "ontology output file")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*in, *out); err != nil {
		fmt.Fprintln(os.Stderr, "oassis-import:", err)
		os.Exit(1)
	}
}

// sniffReader peeks at the stream's first two bytes and, when they are the
// gzip magic (0x1f 0x8b), interposes a decompressor.
func sniffReader(f io.Reader) (io.Reader, bool, error) {
	br := bufio.NewReaderSize(f, 1<<16)
	magic, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return nil, false, err
	}
	if len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, false, err
		}
		return zr, true, nil
	}
	return br, false, nil
}

func run(in, out string) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	r, gzipped, err := sniffReader(f)
	if err != nil {
		return err
	}
	start := time.Now()
	v, store, stats, err := oassis.LoadNTriples(r)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	o, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := oassis.WriteOntology(o, store); err != nil {
		o.Close()
		return err
	}
	if err := o.Close(); err != nil {
		return err
	}
	src := in
	if gzipped {
		src += " (gzip)"
	}
	fmt.Printf("imported %d triples from %s in %.2fs (%.0f triples/s)\n",
		stats.Triples, src, elapsed.Seconds(), float64(stats.Triples)/elapsed.Seconds())
	fmt.Printf("  facts=%d labels=%d elements=%d relations=%d skipped: %d literals, %d blank-node triples → %s\n",
		stats.Facts, stats.Labels, v.NumElements(), v.NumRelations(),
		stats.SkippedLiterals, stats.SkippedBlank, out)
	return nil
}
