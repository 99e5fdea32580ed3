package inline

import (
	"testing"

	"kaleidoscope/internal/webgen"
)

func BenchmarkInlineWikiArticle(b *testing.B) {
	site := webgen.WikiArticle(webgen.WikiConfig{Seed: 1})
	b.ReportAllocs()
	b.SetBytes(int64(site.TotalBytes()))
	for i := 0; i < b.N; i++ {
		if _, _, err := Inline(site); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInlineGroupPage(b *testing.B) {
	site := webgen.GroupPage(webgen.GroupConfig{Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Inline(site); err != nil {
			b.Fatal(err)
		}
	}
}
