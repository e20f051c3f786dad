/**
 * @file
 * Program registry: the catalogue of "compiled to JavaScript" executables.
 *
 * In the paper, each program (dash, make, pdflatex, the meme server…) is
 * compiled ahead of time to a JavaScript bundle staged in the filesystem;
 * the kernel spawns a worker from the bundle's bytes via a blob URL. Here
 * a bundle is a marker header naming a registered program plus padding
 * out to the real bundle's size — so worker boot pays a faithful
 * parse/JIT cost — and the worker bootstrap maps the name back to the
 * program's entry point and runtime kind.
 *
 * A bundle's bytes are built once per process and shared by every boot's
 * file; a spawn shares that buffer with the blob and the worker (see
 * bfs::BufferPtr), so the padding costs memory once, but no per-boot
 * build and no per-spawn host copy.
 */
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>

#include "bfs/types.h"
#include "runtime/emscripten/em_runtime.h"
#include "runtime/gopher/go_runtime.h"

namespace browsix {
namespace apps {

enum class RuntimeKind {
    EmSync,    ///< Emscripten, asm.js + synchronous syscalls
    EmRing,    ///< Emscripten, asm.js + batched ring syscalls (io_uring)
    EmAsync,   ///< Emscripten, Emterpreter + asynchronous syscalls
    Gopher,    ///< GopherJS
    Node,      ///< browser-node (utilities resolved via the script file)
};

struct ProgramSpec
{
    std::string name;
    RuntimeKind kind = RuntimeKind::EmSync;
    size_t bundleKb = 64; ///< virtual size of the compiled JS bundle
    rt::EmProgramFn emMain;
    rt::GoProgramFn goMain;
};

class ProgramRegistry
{
  public:
    static ProgramRegistry &instance();

    void add(ProgramSpec spec);
    const ProgramSpec *find(const std::string &name) const;

    /** Executable file bytes for a registered program: the marker
     * header, then "// bundle payload\n" repeated to bundleKb. Built on
     * first use and shared after that: the registry keeps a reference,
     * so an InMem file staged from it copies before it writes. */
    bfs::BufferPtr bundleFor(const std::string &name) const;

    /** Extract the program name from bundle bytes ("" if not a bundle). */
    static std::string programFromBundle(const bfs::Buffer &bytes);

  private:
    std::map<std::string, ProgramSpec> specs_;
    mutable std::mutex bundlesMu_; // boots may run on several threads
    mutable std::map<std::string, bfs::BufferPtr> bundles_;
};

/** Register every built-in program (idempotent). */
void registerAllPrograms();

} // namespace apps
} // namespace browsix
