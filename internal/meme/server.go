package meme

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/abi"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/posix"
)

// Port is the meme server's listening port inside Browsix.
const Port = 8888

// TemplateDir and FontPath locate the server's assets in the image.
const (
	TemplateDir = "/usr/share/memes"
	FontPath    = "/usr/share/fonts/meme5x7.font"
)

// GenRequest is the POST /api/meme body.
type GenRequest struct {
	Template string `json:"template"`
	Top      string `json:"top"`
	Bottom   string `json:"bottom"`
}

func init() {
	posix.Register(&posix.Program{Name: "meme-server", Main: serverMain})
}

// serverMain is the unmodified Go server: read assets from the file
// system, then serve HTTP over (Browsix) sockets.
func serverMain(p posix.Proc) int {
	assets, errno := loadAssets(readFileVia(p))
	if errno != abi.OK {
		posix.Fprintf(p, abi.Stderr, "meme-server: loading assets: %v\n", errno)
		return 1
	}
	// Asset directory listing needs getdents, which readFileVia lacks;
	// enumerate templates here.
	names, errno := listTemplates(p)
	if errno != abi.OK {
		posix.Fprintf(p, abi.Stderr, "meme-server: %v\n", errno)
		return 1
	}
	for _, name := range names {
		data, rerr := posix.ReadFile(p, TemplateDir+"/"+name)
		if rerr != abi.OK {
			continue
		}
		img, derr := DecodePPM(data)
		if derr != nil {
			continue
		}
		assets.AddTemplate(strings.TrimSuffix(name, ".ppm"), img)
	}
	posix.Fprintf(p, abi.Stderr, "meme-server: listening on :%d with %d templates\n", Port, len(assets.templates))
	// "-serial" selects the pre-event-loop one-request-per-connection
	// server — the ablation baseline the load experiments compare against.
	serve := httpx.Serve
	for _, a := range p.Args() {
		if a == "-serial" {
			serve = httpx.ServeSerial
		}
	}
	cpu := cpuVia(p)
	err := serve(p, Port, func(req *httpx.Request) *httpx.Response {
		return assets.Handle(req.Method, req.Path, req.Body, cpu)
	})
	if err != abi.OK {
		posix.Fprintf(p, abi.Stderr, "meme-server: %v\n", err)
		return 1
	}
	return 0
}

func listTemplates(p posix.Proc) ([]string, abi.Errno) {
	fd, err := p.Open(TemplateDir, abi.O_RDONLY|abi.O_DIRECTORY, 0)
	if err != abi.OK {
		return nil, err
	}
	defer p.Close(fd)
	ents, err := posix.ReadDir(p, fd)
	if err != abi.OK {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name, ".ppm") {
			out = append(out, e.Name)
		}
	}
	sort.Strings(out)
	return out, abi.OK
}

// Assets is the server's in-memory state (stateless across requests,
// "following best practices").
type Assets struct {
	Font *Font

	templates map[string]*Image // by name, filled through AddTemplate
	// listing is the GET /api/templates response for the current
	// template set, shared by every request and built when first asked
	// for after a change.
	listing *httpx.Response
}

// AddTemplate makes img the template called name.
func (a *Assets) AddTemplate(name string, img *Image) {
	if a.templates == nil {
		a.templates = map[string]*Image{}
	}
	a.templates[name] = img
	a.listing = nil
}

// templateListing returns the sorted JSON list of template names as the
// shared GET /api/templates response.
func (a *Assets) templateListing() *httpx.Response {
	if a.listing == nil {
		names := make([]string, 0, len(a.templates))
		for n := range a.templates {
			names = append(names, n)
		}
		sort.Strings(names)
		out, _ := json.Marshal(names)
		a.listing = &httpx.Response{Status: 200,
			Header: map[string]string{"Content-Type": "application/json"}, Body: out}
	}
	return a.listing
}

// CPUFunc charges server CPU: regular and int64-heavy work. The Browsix
// server charges through posix.Proc (GopherJS multipliers); the remote
// host charges native time.
type CPUFunc func(ns int64, int64Heavy bool)

func cpuVia(p posix.Proc) CPUFunc {
	return func(ns int64, heavy bool) {
		if heavy {
			p.CPU64(ns)
		} else {
			p.CPU(ns)
		}
	}
}

func readFileVia(p posix.Proc) func(path string) ([]byte, abi.Errno) {
	return func(path string) ([]byte, abi.Errno) { return posix.ReadFile(p, path) }
}

// loadAssets reads the font (templates are added by the callers, which
// differ in how they enumerate directories).
func loadAssets(readFile func(string) ([]byte, abi.Errno)) (*Assets, abi.Errno) {
	fontData, err := readFile(FontPath)
	if err != abi.OK {
		return nil, err
	}
	font, ferr := ParseFont(fontData)
	if ferr != nil {
		return nil, abi.EINVAL
	}
	return &Assets{Font: font}, abi.OK
}

// healthz is the one GET /healthz response every request shares: servers
// never modify a response, and neither may its receivers. The templates
// listing is shared the same way (Assets.listing).
var healthz = &httpx.Response{Status: 200, Body: []byte("ok")}

// Handle services one API request; it is the shared "server source code".
// Every templates listing is charged as the listing and JSON encoding
// the server source does, though the host builds it once per template
// set.
func (a *Assets) Handle(method, path string, body []byte, cpu CPUFunc) *httpx.Response {
	switch {
	case method == "GET" && path == "/api/templates":
		cpu(900_000+int64(len(a.templates))*40_000, false) // listing + JSON encode
		return a.templateListing()

	case method == "POST" && path == "/api/meme":
		var req GenRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return &httpx.Response{Status: 400, Body: []byte("bad json")}
		}
		tpl, ok := a.templates[req.Template]
		if !ok {
			return &httpx.Response{Status: 404, Body: []byte("no such template " + req.Template)}
		}
		img, work := a.Compose(tpl, req.Top, req.Bottom)
		// Pixel blending is 64-bit-heavy in the paper's Go image
		// libraries — the source of the GopherJS 10x gap (§5.2).
		cpu(work, true)
		out := img.EncodePPM()
		cpu(int64(len(out))/8, false) // encode
		return &httpx.Response{Status: 200,
			Header: map[string]string{"Content-Type": "image/x-portable-pixmap"}, Body: out}

	case method == "GET" && path == "/healthz":
		return healthz
	}
	return &httpx.Response{Status: 404, Body: []byte("not found: " + path)}
}

// Compose draws the captions onto a copy of the template, returning the
// image and the native-ns CPU work its pixel operations represent.
func (a *Assets) Compose(tpl *Image, top, bottom string) (*Image, int64) {
	img := &Image{W: tpl.W, H: tpl.H, Pix: append([]byte{}, tpl.Pix...)}
	scale := img.W / 160
	if scale < 1 {
		scale = 1
	}
	touched := a.Font.DrawText(img, top, img.W/2, 8*scale, scale)
	touched += a.Font.DrawText(img, bottom, img.W/2, img.H-15*scale, scale)
	// Rasterization + encode are per-pixel 64-bit math (the paper's
	// GopherJS bottleneck): ~2.8us/pixel natively for the full
	// draw+composite+encode pass, plus extra work on caption pixels.
	work := int64(img.W*img.H)*2800 + int64(touched)*50
	return img, work
}

// ---------------------------------------------------------------------------
// Image staging and the remote (native) server.
// ---------------------------------------------------------------------------

// Templates generates the template images staged into the file system.
func Templates() map[string]*Image {
	mk := func(w, h int, r, g, b byte) *Image {
		img := NewImage(w, h, r, g, b)
		// A diagonal band so outputs differ per template.
		for y := 0; y < h; y++ {
			img.Set(y%w, y, 255-r, 255-g, 255-b)
		}
		return img
	}
	return map[string]*Image{
		"distracted":  mk(320, 240, 200, 180, 140),
		"doge":        mk(256, 256, 230, 200, 90),
		"fry":         mk(320, 240, 220, 120, 60),
		"grumpy-cat":  mk(280, 210, 150, 150, 160),
		"success-kid": mk(320, 240, 90, 140, 190),
	}
}

// StageFiles returns the files a Browsix (or remote) image needs:
// templates + font.
func StageFiles() map[string][]byte {
	files := map[string][]byte{FontPath: FontFile()}
	for name, img := range Templates() {
		files[TemplateDir+"/"+name+".ppm"] = img.EncodePPM()
	}
	return files
}

// NewRemoteHost builds the netsim host running the same server code
// natively (the paper's EC2 instance / local server). rtt is the
// browser<->server round trip.
func NewRemoteHost(name string, rtt int64, nsPerByte float64) *netsim.Host {
	files := StageFiles()
	assets, err := loadAssets(func(path string) ([]byte, abi.Errno) {
		if b, ok := files[path]; ok {
			return b, abi.OK
		}
		return nil, abi.ENOENT
	})
	if err != abi.OK {
		panic("meme: remote host assets: " + err.String())
	}
	for p, data := range files {
		if !strings.HasPrefix(p, TemplateDir) {
			continue
		}
		img, derr := DecodePPM(data)
		if derr == nil {
			name := strings.TrimSuffix(strings.TrimPrefix(p, TemplateDir+"/"), ".ppm")
			assets.AddTemplate(name, img)
		}
	}
	return &netsim.Host{
		Name:      name,
		RTT:       rtt,
		NsPerByte: nsPerByte,
		Handler: func(h *netsim.Host, req netsim.Request) netsim.Response {
			resp := assets.Handle(req.Method, req.Path, req.Body, func(ns int64, heavy bool) {
				h.Charge(ns) // native server: no int64 penalty
			})
			// Bodies are read-only on the simulated network (as
			// netsim.FileHost's file bytes are), so a shared response's
			// (healthz, the templates listing) travels uncopied.
			return netsim.Response{Status: resp.Status, Header: resp.Header, Body: resp.Body}
		},
	}
}

// DescribeImage summarizes a PPM for tests and examples.
func DescribeImage(data []byte) string {
	img, err := DecodePPM(data)
	if err != nil {
		return "invalid: " + err.Error()
	}
	white := 0
	for i := 0; i < len(img.Pix); i += 3 {
		if img.Pix[i] == 255 && img.Pix[i+1] == 255 && img.Pix[i+2] == 255 {
			white++
		}
	}
	return fmt.Sprintf("%dx%d ppm, %d caption pixels", img.W, img.H, white)
}
