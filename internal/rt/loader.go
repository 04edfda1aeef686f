package rt

import (
	"sync"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/posix"
)

// Loader returns the kernel executable loader: it parses the
// "compiled to JavaScript" header of an executable staged in the Browsix
// file system and produces the Web Worker entry point that boots the
// matching runtime around the registered program.
func Loader(sys *browser.System) core.Loader {
	return func(script []byte) (func(*browser.Worker), abi.Errno) {
		name, kindStr, ok := posix.ParseExecutable(script)
		if !ok {
			return nil, abi.ENOEXEC
		}
		kind := Kind(kindStr)
		if !kind.IsBrowsix() {
			return nil, abi.ENOEXEC
		}
		prog := posix.Lookup(name)
		if prog == nil {
			return nil, abi.ENOENT
		}
		return func(w *browser.Worker) { bootWorker(sys, w, prog, kind) }, abi.OK
	}
}

// artifactKey names one compiled artifact: a program built for a runtime.
type artifactKey struct {
	prog string
	kind Kind
}

// artifacts holds every artifact built so far in this host process. Fleet
// workers stage in parallel, so the cache is concurrency-safe; entries are
// never evicted (there is one per registered program and runtime).
var artifacts sync.Map // artifactKey -> []byte

// Artifact returns the executable file for progName compiled for kind,
// padded to the runtime's modelled ArtifactSize. It is built once per host
// process and shared by every caller: the bytes are immutable, so callers
// must never write to them (stage them with fs.FileSystem.WriteFileShared,
// or copy them first). Spawn keeps them shared too: the kernel reads the
// staged file with fs.FileSystem.ReadFileShared, and the Blob it starts
// the Worker from holds the same bytes by reference.
func Artifact(progName string, kind Kind) []byte {
	key := artifactKey{progName, kind}
	if b, ok := artifacts.Load(key); ok {
		return b.([]byte)
	}
	b, _ := artifacts.LoadOrStore(key, posix.Executable(progName, string(kind), ArtifactSize(kind)))
	return b.([]byte)
}
