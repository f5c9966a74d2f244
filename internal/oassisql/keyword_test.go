package oassisql

import (
	"strings"
	"testing"
)

// keywordRef is the lookup keyword replaces.
func keywordRef(w string) (string, bool) {
	kw, ok := keywords[strings.ToUpper(w)]
	return kw, ok
}

func checkKeyword(t *testing.T, w string) {
	t.Helper()
	got, gotOK := keyword(w)
	want, wantOK := keywordRef(w)
	if got != want || gotOK != wantOK {
		t.Fatalf("keyword(%q) = %q, %v; keywords[ToUpper] gives %q, %v", w, got, gotOK, want, wantOK)
	}
}

// TestKeywordLookup checks the stack-buffer lookup against the
// strings.ToUpper one on every keyword in several casings, near misses,
// over-long words, and words whose non-ASCII runes case-fold: 'ı' and 'ſ'
// upper-case to ASCII 'I' and 'S', while the Kelvin sign is already upper
// case and stays non-ASCII.
func TestKeywordLookup(t *testing.T) {
	var words []string
	for kw := range keywords {
		lower := strings.ToLower(kw)
		title := lower[:1] + strings.ToUpper(lower[1:])
		words = append(words, kw, lower, title, kw[:len(kw)-1], kw+"S", kw+"-", "_"+kw)
	}
	words = append(words,
		"", "x", "Biking", "doAt", "SATISFYINGX", "satisfyingsatisfying",
		"lımıt", "LIMıT", "ſelect", "ſatiſfying", "faCt-ſetſ", "dıverse",
		"\u212Aelvin", "LI\u212A", "\u212A", "WİTH", "withé", "sélect", "ſ", "ı",
		"ſatiſfyingſ", "ALĹ", "\xff", "SELECT\xff",
	)
	for _, w := range words {
		checkKeyword(t, w)
	}
	if kw, ok := keyword("ſelect"); !ok || kw != "SELECT" {
		t.Fatalf(`keyword("ſelect") = %q, %v; want SELECT`, kw, ok)
	}
	if _, ok := keyword("SEle\u212At"); ok {
		t.Fatal("the Kelvin sign must not fold to a keyword")
	}
}

// FuzzKeyword checks the keyword lookup against keywords[strings.ToUpper(w)]
// on arbitrary words (run with `go test -fuzz=FuzzKeyword
// ./internal/oassisql`).
func FuzzKeyword(f *testing.F) {
	for _, seed := range []string{"select", "SATISFYING", "ſelect", "lımıt", "\u212Aelvin", "fact-sets", "", "\xff"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, w string) {
		checkKeyword(t, w)
	})
}
