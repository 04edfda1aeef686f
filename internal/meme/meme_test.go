package meme

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/abi"
	"repro/internal/httpx"
)

func TestPPMRoundTrip(t *testing.T) {
	img := NewImage(17, 9, 10, 20, 30)
	img.Set(3, 4, 200, 100, 50)
	out := img.EncodePPM()
	got, err := DecodePPM(out)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 17 || got.H != 9 {
		t.Fatalf("dims %dx%d", got.W, got.H)
	}
	r, g, b := got.At(3, 4)
	if r != 200 || g != 100 || b != 50 {
		t.Fatalf("pixel = %d,%d,%d", r, g, b)
	}
}

func TestPPMRoundTripProperty(t *testing.T) {
	f := func(w8, h8 uint8, fill uint8) bool {
		w, h := int(w8%32)+1, int(h8%32)+1
		img := NewImage(w, h, fill, fill/2, fill/3)
		got, err := DecodePPM(img.EncodePPM())
		if err != nil {
			return false
		}
		if got.W != w || got.H != h {
			return false
		}
		for i := range img.Pix {
			if got.Pix[i] != img.Pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodePPMErrors(t *testing.T) {
	cases := [][]byte{
		[]byte("P5\n1 1\n255\nX"),    // wrong magic
		[]byte("P6\n10 10\n255\nxy"), // truncated body
		[]byte("P6\nnotanumber\n"),   // bad header
	}
	for i, c := range cases {
		if _, err := DecodePPM(c); err == nil {
			t.Errorf("case %d: decode accepted invalid input", i)
		}
	}
}

func TestFontParsingAndCoverage(t *testing.T) {
	f, err := ParseFont(FontFile())
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789!?. " {
		if _, ok := f.Glyphs[ch]; !ok {
			t.Errorf("glyph %q missing", ch)
		}
	}
}

func TestDrawTextTouchesPixels(t *testing.T) {
	f, _ := ParseFont(FontFile())
	img := NewImage(200, 60, 0, 0, 0)
	n := f.DrawText(img, "HI", 100, 10, 2)
	if n == 0 {
		t.Fatal("no pixels drawn")
	}
	white := 0
	for i := 0; i < len(img.Pix); i += 3 {
		if img.Pix[i] == 255 {
			white++
		}
	}
	if white == 0 {
		t.Fatal("no white fill")
	}
	// Out-of-bounds drawing must not panic.
	f.DrawText(img, "CLIPPED TEXT WAY TOO LONG FOR THE IMAGE", 0, -3, 4)
}

func TestHandleTemplatesAndGenerate(t *testing.T) {
	assets := testAssets(t)
	var cpuTotal int64
	heavySeen := false
	cpu := func(ns int64, heavy bool) {
		cpuTotal += ns
		if heavy {
			heavySeen = true
		}
	}
	resp := assets.Handle("GET", "/api/templates", nil, cpu)
	if resp.Status != 200 {
		t.Fatalf("templates: %d", resp.Status)
	}
	var names []string
	json.Unmarshal(resp.Body, &names)
	if len(names) != 5 || names[0] != "distracted" {
		t.Fatalf("names = %v", names)
	}

	body, _ := json.Marshal(GenRequest{Template: "doge", Top: "TOP", Bottom: "BOTTOM"})
	resp = assets.Handle("POST", "/api/meme", body, cpu)
	if resp.Status != 200 {
		t.Fatalf("generate: %d %s", resp.Status, resp.Body)
	}
	if !heavySeen {
		t.Fatal("generation did not charge int64-heavy CPU (the GopherJS penalty path)")
	}
	img, err := DecodePPM(resp.Body)
	if err != nil || img.W != 256 {
		t.Fatalf("output image: %v", err)
	}
}

// TestTemplateListingFollowsAdds: the templates listing is built once
// per template set, so a template added after a listing shows in the
// next one, which is then shared by the requests that follow, and every
// listing is charged the listing and encoding work for the set it lists.
func TestTemplateListingFollowsAdds(t *testing.T) {
	assets := testAssets(t)
	var charged []int64
	cpu := func(ns int64, _ bool) { charged = append(charged, ns) }
	list := func() (*httpx.Response, []string) {
		resp := assets.Handle("GET", "/api/templates", nil, cpu)
		var names []string
		if err := json.Unmarshal(resp.Body, &names); resp.Status != 200 || err != nil {
			t.Fatalf("templates: %d %q (%v)", resp.Status, resp.Body, err)
		}
		return resp, names
	}
	first, names := list()
	if len(names) != 5 {
		t.Fatalf("first listing %v", names)
	}
	assets.AddTemplate("aaa-new", NewImage(8, 8, 1, 2, 3))
	second, names := list()
	if len(names) != 6 || names[0] != "aaa-new" || first == second {
		t.Fatalf("listing after an add: %v (fresh response: %v)", names, first != second)
	}
	if third, _ := list(); third != second {
		t.Error("an unchanged template set built its listing again")
	}
	want := []int64{900_000 + 5*40_000, 900_000 + 6*40_000, 900_000 + 6*40_000}
	if !slices.Equal(charged, want) {
		t.Errorf("charged %v, want %v", charged, want)
	}
}

func TestHandleErrors(t *testing.T) {
	assets := testAssets(t)
	cpu := func(int64, bool) {}
	if r := assets.Handle("POST", "/api/meme", []byte("{bad"), cpu); r.Status != 400 {
		t.Fatalf("bad json: %d", r.Status)
	}
	body, _ := json.Marshal(GenRequest{Template: "nope"})
	if r := assets.Handle("POST", "/api/meme", body, cpu); r.Status != 404 {
		t.Fatalf("missing template: %d", r.Status)
	}
	if r := assets.Handle("GET", "/wrong", nil, cpu); r.Status != 404 {
		t.Fatalf("unknown path: %d", r.Status)
	}
}

func TestStageFilesComplete(t *testing.T) {
	files := StageFiles()
	if _, ok := files[FontPath]; !ok {
		t.Fatal("font missing from staged files")
	}
	n := 0
	for p := range files {
		if strings.HasPrefix(p, TemplateDir) {
			n++
		}
	}
	if n != 5 {
		t.Fatalf("templates staged = %d", n)
	}
}

func testAssets(t *testing.T) *Assets {
	t.Helper()
	files := StageFiles()
	assets, err := loadAssets(func(p string) ([]byte, abi.Errno) {
		if b, ok := files[p]; ok {
			return b, abi.OK
		}
		return nil, abi.ENOENT
	})
	if err != abi.OK {
		t.Fatal(err)
	}
	for p, data := range files {
		if strings.HasPrefix(p, TemplateDir) {
			img, derr := DecodePPM(data)
			if derr != nil {
				t.Fatal(derr)
			}
			name := strings.TrimSuffix(strings.TrimPrefix(p, TemplateDir+"/"), ".ppm")
			assets.AddTemplate(name, img)
		}
	}
	return assets
}
