#include "apps/tex/tex.h"

#include <set>
#include <sstream>

#include "bfs/path.h"
#include "jsvm/util.h"
#include "runtime/emvm/assembler.h"

namespace browsix {
namespace apps {

// ---------------------------------------------------------------------------
// Typeset kernel: native and bytecode versions of the same mixing loop.

int64_t
typesetNative(int64_t seed, int64_t iters)
{
    // Must match the bytecode kernel bit-for-bit; the VM's SHR is a
    // logical shift and its arithmetic wraps, so compute in uint64_t
    // (signed overflow would be UB here) and cast back.
    uint64_t x = static_cast<uint64_t>(seed | 1);
    for (int64_t i = 0; i < iters; i++) {
        x = x * 31 + static_cast<uint64_t>(seed);
        x = x ^ (x >> 7);
        x = x + static_cast<uint64_t>(i);
    }
    return static_cast<int64_t>(x);
}

const emvm::Image &
typesetImage()
{
    static const emvm::Image image = []() {
        // typeset(seed, iters): locals 0=seed 1=iters 2=x 3=i
        const char *src = R"(
.func typeset 2 4
    loadl 0
    push 1
    or
    storel 2          ; x = seed | 1
    push 0
    storel 3          ; i = 0
loop:
    loadl 3
    loadl 1
    lt
    jz done           ; while (i < iters)
    loadl 2
    push 31
    mul
    loadl 0
    add
    storel 2          ; x = x*31 + seed
    loadl 2
    loadl 2
    push 7
    shr
    xor
    storel 2          ; x ^= x >> 7
    loadl 2
    loadl 3
    add
    storel 2          ; x += i
    loadl 3
    push 1
    add
    storel 3
    jmp loop
done:
    loadl 2
    ret
.end
.func main 0 1
    push 0
    halt
.end
)";
        emvm::Image img;
        std::string err;
        if (!emvm::assemble(src, img, err))
            jsvm::panic("typeset kernel assembly failed: " + err);
        return img;
    }();
    return image;
}

// ---------------------------------------------------------------------------
// pdflatex

namespace {

/** fnv-ish hash for seeding typeset work from content. */
int64_t
contentSeed(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (char c : s) {
        h ^= static_cast<uint8_t>(c);
        h *= 1099511628211ull;
    }
    return static_cast<int64_t>(h & 0x7fffffffffffull);
}

std::string
hex64(int64_t v)
{
    std::ostringstream os;
    os << std::hex << static_cast<uint64_t>(v);
    return os.str();
}

struct TexDoc
{
    std::string cls = "article";
    std::vector<std::string> packages;
    std::vector<std::string> inputs;
    std::vector<std::string> citations;
    std::string bibdata;
    std::vector<std::string> bodyLines;
};

void
parseTexSource(const std::string &src, TexDoc &doc)
{
    std::istringstream is(src);
    std::string line;
    auto arg = [](const std::string &l, const std::string &cmd,
                  std::string &out) {
        auto pos = l.find(cmd);
        if (pos == std::string::npos)
            return false;
        auto open = l.find('{', pos);
        auto close = l.find('}', open);
        if (open == std::string::npos || close == std::string::npos)
            return false;
        out = l.substr(open + 1, close - open - 1);
        return true;
    };
    while (std::getline(is, line)) {
        if (!line.empty() && line[0] == '%')
            continue;
        std::string a;
        if (arg(line, "\\documentclass", a)) {
            doc.cls = a;
            continue;
        }
        if (arg(line, "\\usepackage", a)) {
            // comma-separated lists allowed
            std::string cur;
            for (char c : a + ",") {
                if (c == ',') {
                    if (!cur.empty())
                        doc.packages.push_back(cur);
                    cur.clear();
                } else if (c != ' ') {
                    cur.push_back(c);
                }
            }
            continue;
        }
        if (arg(line, "\\input", a)) {
            doc.inputs.push_back(a);
            continue;
        }
        if (arg(line, "\\bibliography", a)) {
            doc.bibdata = a;
            continue;
        }
        // \cite may appear mid-line, repeatedly
        size_t pos = 0;
        while ((pos = line.find("\\cite{", pos)) != std::string::npos) {
            auto close = line.find('}', pos);
            if (close == std::string::npos)
                break;
            doc.citations.push_back(line.substr(pos + 6, close - pos - 6));
            pos = close + 1;
        }
        doc.bodyLines.push_back(line);
    }
}

/** The canonical font set every document pulls in. */
const std::vector<std::string> &
baseFonts()
{
    static const std::vector<std::string> fonts = {
        "fonts/cmr10.tfm",  "fonts/cmr7.tfm",  "fonts/cmbx10.tfm",
        "fonts/cmti10.tfm", "fonts/cmmi10.tfm", "fonts/cmsy10.tfm",
        "fonts/cmex10.tfm", "fonts/cmtt10.tfm", "fonts/cmr10.pfb",
        "fonts/cmbx10.pfb", "fonts/cmti10.pfb", "fonts/cmmi10.pfb"};
    return fonts;
}

/** Load a texlive file, following its "%require: X" transitive deps. */
int
loadTexliveFile(TexIo &io, const std::string &relpath,
                std::set<std::string> &loaded, std::string &err_file,
                int64_t &bytes_read)
{
    if (loaded.count(relpath))
        return 0;
    loaded.insert(relpath);
    // kpathsea-style search: probe the usual tree locations first.
    // Failed path lookups are "a common event" (§3.6) — this is where
    // that syscall traffic comes from.
    for (const char *prefix :
         {"/texlive/texmf-local/", "/texlive/texmf-dist/tex/",
          "/texlive/texmf-var/"}) {
        if (io.exists(prefix + relpath))
            break;
    }
    std::string content;
    int rc = io.readFile("/texlive/" + relpath, content);
    if (rc != 0) {
        err_file = relpath;
        return rc;
    }
    bytes_read += static_cast<int64_t>(content.size());
    std::istringstream is(content);
    std::string line;
    while (std::getline(is, line)) {
        const std::string marker = "%require: ";
        if (line.rfind(marker, 0) == 0) {
            std::string dep = line.substr(marker.size());
            while (!dep.empty() && (dep.back() == '\r' || dep.back() == ' '))
                dep.pop_back();
            rc = loadTexliveFile(io, dep, loaded, err_file, bytes_read);
            if (rc != 0)
                return rc;
        }
    }
    return 0;
}

} // namespace

int
runPdflatex(TexIo &io, const std::string &jobpath, int64_t iters_per_page)
{
    std::string jobname = jobpath;
    if (jobname.size() > 4 && jobname.substr(jobname.size() - 4) == ".tex")
        jobname = jobname.substr(0, jobname.size() - 4);

    std::ostringstream log;
    log << "This is pdfTeX (Browsix substrate)\n";

    std::string src;
    if (io.readFile(jobname + ".tex", src) != 0) {
        io.log("! I can't find file `" + jobname + ".tex'.\n");
        return 1;
    }

    TexDoc doc;
    parseTexSource(src, doc);
    for (const auto &inc : doc.inputs) {
        std::string sub;
        if (io.readFile(inc + ".tex", sub) != 0) {
            io.log("! LaTeX Error: File `" + inc + ".tex' not found.\n");
            return 1;
        }
        TexDoc subdoc;
        parseTexSource(sub, subdoc);
        doc.bodyLines.insert(doc.bodyLines.end(), subdoc.bodyLines.begin(),
                             subdoc.bodyLines.end());
        doc.citations.insert(doc.citations.end(), subdoc.citations.begin(),
                             subdoc.citations.end());
    }

    // Pull in the class, packages (with transitive deps), and fonts —
    // each one a lazy open/read against the texlive tree.
    std::set<std::string> loaded;
    int64_t bytes_read = 0;
    std::string missing;
    if (loadTexliveFile(io, doc.cls + ".cls", loaded, missing,
                        bytes_read) != 0) {
        io.log("! LaTeX Error: File `" + missing + "' not found.\n");
        return 1;
    }
    for (const auto &pkg : doc.packages) {
        if (loadTexliveFile(io, pkg + ".sty", loaded, missing,
                            bytes_read) != 0) {
            io.log("! LaTeX Error: File `" + missing + "' not found.\n");
            io.log("Emergency stop.\n");
            return 1;
        }
    }
    for (const auto &font : baseFonts()) {
        if (loadTexliveFile(io, font, loaded, missing, bytes_read) != 0) {
            io.log("! Font file " + missing + " not found.\n");
            return 1;
        }
    }
    log << "(" << loaded.size() << " files read, " << bytes_read
        << " bytes)\n";

    // Auxiliary file: citations recorded for bibtex. Left untouched when
    // the content is unchanged (like latexmk) so Makefile mtime checks
    // reach a fixpoint instead of rebuilding forever.
    std::ostringstream aux;
    aux << "\\relax\n";
    for (const auto &c : doc.citations)
        aux << "\\citation{" << c << "}\n";
    if (!doc.bibdata.empty())
        aux << "\\bibdata{" << doc.bibdata << "}\n";
    std::string prev_aux;
    bool aux_same = io.readFile(jobname + ".aux", prev_aux) == 0 &&
                    prev_aux == aux.str();
    if (!aux_same && io.writeFile(jobname + ".aux", aux.str()) != 0) {
        io.log("! I can't write on file `" + jobname + ".aux'.\n");
        return 1;
    }

    // Incorporate the bibliography if bibtex has produced it.
    std::string bbl;
    bool undefined_citations = false;
    if (!doc.citations.empty()) {
        if (io.readFile(jobname + ".bbl", bbl) != 0) {
            undefined_citations = true;
            log << "LaTeX Warning: Citation undefined; rerun bibtex.\n";
        }
    }

    // Typeset page by page: real compute through the kernel.
    size_t words = 0;
    std::string body;
    for (const auto &l : doc.bodyLines) {
        body += l;
        body += '\n';
        bool in_word = false;
        for (char c : l) {
            if (c != ' ' && c != '\t' && !in_word) {
                words++;
                in_word = true;
            } else if (c == ' ' || c == '\t') {
                in_word = false;
            }
        }
    }
    int pages = static_cast<int>(words / 350) + 1;
    std::ostringstream pdf;
    pdf << "%PDF-1.5\n% Browsix pdflatex substrate\n";
    for (int p = 0; p < pages; p++) {
        int64_t seed =
            contentSeed(body + bbl + std::to_string(p));
        int64_t h = io.typeset(seed, iters_per_page);
        pdf << "% page " << (p + 1) << " " << hex64(h) << "\n";
    }
    pdf << "%%EOF\n";
    if (io.writeFile(jobname + ".pdf", pdf.str()) != 0) {
        io.log("! I can't write on file `" + jobname + ".pdf'.\n");
        return 1;
    }
    log << "Output written on " << jobname << ".pdf (" << pages
        << " page" << (pages == 1 ? "" : "s") << ").\n";
    io.writeFile(jobname + ".log", log.str());
    io.log(log.str());
    return undefined_citations ? 0 : 0;
}

// ---------------------------------------------------------------------------
// bibtex

int
runBibtex(TexIo &io, const std::string &jobpath)
{
    std::string jobname = jobpath;
    if (jobname.size() > 4 && jobname.substr(jobname.size() - 4) == ".aux")
        jobname = jobname.substr(0, jobname.size() - 4);

    std::string aux;
    if (io.readFile(jobname + ".aux", aux) != 0) {
        io.log("I couldn't open auxiliary file " + jobname + ".aux\n");
        return 2;
    }
    std::vector<std::string> citations;
    std::string bibdata;
    std::istringstream is(aux);
    std::string line;
    auto braceArg = [](const std::string &l) {
        auto open = l.find('{');
        auto close = l.find('}', open);
        if (open == std::string::npos || close == std::string::npos)
            return std::string();
        return l.substr(open + 1, close - open - 1);
    };
    while (std::getline(is, line)) {
        if (line.rfind("\\citation{", 0) == 0)
            citations.push_back(braceArg(line));
        else if (line.rfind("\\bibdata{", 0) == 0)
            bibdata = braceArg(line);
    }
    if (bibdata.empty()) {
        io.log("I found no \\bibdata command\n");
        return 2;
    }

    std::string bib;
    if (io.readFile(bibdata + ".bib", bib) != 0) {
        io.log("I couldn't open database file " + bibdata + ".bib\n");
        return 2;
    }

    // Crude .bib parse: @type{key, field={value}, ...}
    std::map<std::string, std::map<std::string, std::string>> entries;
    size_t pos = 0;
    while ((pos = bib.find('@', pos)) != std::string::npos) {
        auto open = bib.find('{', pos);
        if (open == std::string::npos)
            break;
        auto comma = bib.find(',', open);
        if (comma == std::string::npos)
            break;
        std::string key = bib.substr(open + 1, comma - open - 1);
        while (!key.empty() && (key.back() == ' ' || key.back() == '\n'))
            key.pop_back();
        // fields until the matching close brace (depth tracked)
        size_t depth = 1;
        size_t i = comma + 1;
        std::string fields;
        while (i < bib.size() && depth > 0) {
            if (bib[i] == '{')
                depth++;
            else if (bib[i] == '}')
                depth--;
            if (depth > 0)
                fields.push_back(bib[i]);
            i++;
        }
        std::map<std::string, std::string> fieldmap;
        size_t fpos = 0;
        while (fpos < fields.size()) {
            auto eq = fields.find('=', fpos);
            if (eq == std::string::npos)
                break;
            std::string fname = fields.substr(fpos, eq - fpos);
            std::string clean;
            for (char c : fname)
                if (isalpha(c))
                    clean.push_back(static_cast<char>(tolower(c)));
            auto vopen = fields.find('{', eq);
            if (vopen == std::string::npos)
                break;
            size_t vdepth = 1;
            size_t j = vopen + 1;
            std::string value;
            while (j < fields.size() && vdepth > 0) {
                if (fields[j] == '{')
                    vdepth++;
                else if (fields[j] == '}')
                    vdepth--;
                if (vdepth > 0)
                    value.push_back(fields[j]);
                j++;
            }
            fieldmap[clean] = value;
            fpos = j;
        }
        entries[key] = std::move(fieldmap);
        pos = i;
    }

    std::ostringstream bbl;
    bbl << "\\begin{thebibliography}{" << citations.size() << "}\n";
    int errors = 0;
    std::ostringstream log;
    for (const auto &key : citations) {
        auto it = entries.find(key);
        if (it == entries.end()) {
            log << "Warning--I didn't find a database entry for \"" << key
                << "\"\n";
            errors++;
            continue;
        }
        const auto &f = it->second;
        auto field = [&](const std::string &name) {
            auto fit = f.find(name);
            return fit == f.end() ? std::string("??") : fit->second;
        };
        bbl << "\\bibitem{" << key << "}\n"
            << field("author") << ". " << field("title") << ". "
            << field("year") << ".\n";
    }
    bbl << "\\end{thebibliography}\n";
    if (io.writeFile(jobname + ".bbl", bbl.str()) != 0) {
        io.log("I couldn't write " + jobname + ".bbl\n");
        return 2;
    }
    io.writeFile(jobname + ".blg", log.str());
    io.log(log.str());
    return errors > 0 ? 1 : 0;
}

// ---------------------------------------------------------------------------
// Browsix (EmEnv) adapters

namespace {

class EmTexIo : public TexIo
{
  public:
    explicit EmTexIo(rt::EmEnv &env) : env_(env) {}

    int
    readFile(const std::string &path, std::string &out) override
    {
        int fd = env_.open(path, 0);
        if (fd < 0)
            return -fd;
        out.clear();
        for (;;) {
            bfs::Buffer chunk;
            int64_t n = env_.read(fd, chunk, 64 * 1024);
            if (n < 0) {
                env_.close(fd);
                return static_cast<int>(-n);
            }
            if (n == 0)
                break;
            out.append(chunk.begin(), chunk.end());
        }
        env_.close(fd);
        return 0;
    }

    int
    writeFile(const std::string &path, const std::string &data) override
    {
        int fd = env_.open(path, bfs::flags::CREAT | bfs::flags::TRUNC |
                                     bfs::flags::WRONLY);
        if (fd < 0)
            return -fd;
        int64_t n = env_.write(fd, data);
        env_.close(fd);
        return n < 0 ? static_cast<int>(-n) : 0;
    }

    bool
    exists(const std::string &path) override
    {
        return env_.access(path, 0) == 0;
    }

    void
    log(const std::string &line) override
    {
        if (!line.empty())
            env_.write(1, line);
    }

    int64_t
    typeset(int64_t seed, int64_t iters) override
    {
        if (env_.emterpreted()) {
            // Genuinely interpreted: the Emterpreter tax is real time.
            return env_.runInterpreted(typesetImage(), "typeset",
                                       {seed, iters});
        }
        // asm.js: modelled by the profile's calibrated surcharge on the
        // native run (none under the fast profile).
        int64_t t0 = jsvm::nowUs();
        int64_t r = typesetNative(seed, iters);
        int64_t elapsed = jsvm::nowUs() - t0;
        env_.costs().charge(static_cast<double>(elapsed) *
                            (env_.costs().profile().asmjsFactor - 1.0));
        return r;
    }

  private:
    rt::EmEnv &env_;
};

/// Relative names (bibtex's `\bibdata{main}`, pdflatex's `\input`)
/// resolve against the job's directory, as they would against the cwd
/// of a Browsix process started there.
class NativeTexIo : public TexIo
{
  public:
    NativeTexIo(bfs::Vfs &vfs, const std::string &jobpath,
                std::string *log_out)
        : vfs_(vfs), dir_(bfs::dirname(jobpath)), logOut_(log_out)
    {
    }

    int
    readFile(const std::string &path, std::string &out) override
    {
        bfs::Buffer data;
        int rc = vfs_.readFileSync(resolve(path), data);
        if (rc != 0)
            return rc;
        out.assign(data.begin(), data.end());
        return 0;
    }

    int
    writeFile(const std::string &path, const std::string &data) override
    {
        return vfs_.writeFileSync(resolve(path), data);
    }

    bool
    exists(const std::string &path) override
    {
        bfs::Stat st;
        return vfs_.statSync(resolve(path), st) == 0;
    }

    void
    log(const std::string &line) override
    {
        if (logOut_)
            *logOut_ += line;
    }

    int64_t
    typeset(int64_t seed, int64_t iters) override
    {
        return typesetNative(seed, iters);
    }

  private:
    std::string
    resolve(const std::string &path) const
    {
        return bfs::joinPath(dir_, path);
    }

    bfs::Vfs &vfs_;
    std::string dir_;
    std::string *logOut_;
};

} // namespace

int
pdflatexMain(rt::EmEnv &env)
{
    const auto &argv = env.argv();
    if (argv.size() < 2) {
        env.write(2, "pdflatex: missing input file\n");
        return 1;
    }
    EmTexIo io(env);
    return runPdflatex(io, argv[1], kItersPerPage);
}

int
bibtexMain(rt::EmEnv &env)
{
    const auto &argv = env.argv();
    if (argv.size() < 2) {
        env.write(2, "bibtex: missing aux file\n");
        return 1;
    }
    EmTexIo io(env);
    return runBibtex(io, argv[1]);
}

int
pdflatexNative(bfs::Vfs &vfs, const std::string &jobpath,
               std::string &log_out)
{
    NativeTexIo io(vfs, jobpath, &log_out);
    return runPdflatex(io, jobpath, kItersPerPage);
}

int
bibtexNative(bfs::Vfs &vfs, const std::string &jobpath,
             std::string &log_out)
{
    NativeTexIo io(vfs, jobpath, &log_out);
    return runBibtex(io, jobpath);
}

// ---------------------------------------------------------------------------
// The staged TeX Live tree + a sample project

void
populateTexliveStore(bfs::HttpStore &store, size_t n_packages)
{
    auto blob = [](size_t bytes, uint32_t seed) {
        bfs::Buffer out(bytes);
        uint32_t x = seed | 1;
        for (size_t i = 0; i < bytes; i++) {
            x = x * 1664525 + 1013904223;
            out[i] = static_cast<uint8_t>(x >> 24);
        }
        return out;
    };

    store.put("/article.cls",
              "% article.cls (Browsix TeX Live substrate)\n"
              "%require: size10.clo\n" +
                  std::string(2000, '%'));
    store.put("/size10.clo", "% size option\n" + std::string(1200, '%'));

    // Named packages mirroring common usage, with transitive deps.
    store.put("/geometry.sty",
              "% geometry\n%require: keyval.sty\n" + std::string(3000, '%'));
    store.put("/keyval.sty", "% keyval\n" + std::string(800, '%'));
    store.put("/amsmath.sty",
              "% amsmath\n%require: amstext.sty\n%require: amsbsy.sty\n" +
                  std::string(8000, '%'));
    store.put("/amstext.sty", "% amstext\n" + std::string(900, '%'));
    store.put("/amsbsy.sty", "% amsbsy\n" + std::string(700, '%'));
    store.put("/graphicx.sty",
              "% graphicx\n%require: keyval.sty\n%require: graphics.sty\n" +
                  std::string(2500, '%'));
    store.put("/graphics.sty", "% graphics\n" + std::string(2200, '%'));
    store.put("/hyperref.sty",
              "% hyperref\n%require: url.sty\n%require: keyval.sty\n" +
                  std::string(12000, '%'));
    store.put("/url.sty", "% url\n" + std::string(1500, '%'));
    store.put("/natbib.sty", "% natbib\n" + std::string(4000, '%'));

    // Filler packages: the long tail of a real distribution (the paper:
    // "a complete TeX Live distribution contains over 60,000 individual
    // files" — a typical paper touches almost none of them).
    for (size_t i = 0; i < n_packages; i++) {
        std::string name = "/pkg" + std::to_string(i) + ".sty";
        std::string content = "% filler package " + std::to_string(i) + "\n";
        if (i % 3 == 1)
            content += "%require: pkg" + std::to_string(i - 1) + ".sty\n";
        content += std::string(1000 + (i % 7) * 500, '%');
        store.put(name, content);
    }

    // Fonts: binary, a few tens of KB each.
    uint32_t seed = 7;
    for (const char *f :
         {"fonts/cmr10.tfm", "fonts/cmr7.tfm", "fonts/cmbx10.tfm",
          "fonts/cmti10.tfm", "fonts/cmmi10.tfm", "fonts/cmsy10.tfm",
          "fonts/cmex10.tfm", "fonts/cmtt10.tfm"}) {
        store.put(std::string("/") + f, blob(1400 + seed % 700, seed));
        seed += 13;
    }
    for (const char *f : {"fonts/cmr10.pfb", "fonts/cmbx10.pfb",
                          "fonts/cmti10.pfb", "fonts/cmmi10.pfb"}) {
        store.put(std::string("/") + f, blob(34000 + seed % 9000, seed));
        seed += 17;
    }
}

void
stageLatexProject(bfs::InMemBackend &root, const std::string &dir,
                  int pages)
{
    std::ostringstream tex;
    tex << "\\documentclass{article}\n"
        << "\\usepackage{geometry}\n"
        << "\\usepackage{amsmath}\n"
        << "\\usepackage{graphicx}\n"
        << "\\usepackage{hyperref}\n"
        << "\\begin{document}\n"
        << "\\title{Browsix: Bridging the Gap}\n"
        << "Browsix brings Unix abstractions to the browser "
        << "\\cite{browsix} and builds on Doppio \\cite{doppio}.\n";
    for (int p = 0; p < pages; p++) {
        for (int i = 0; i < 35; i++) {
            tex << "paragraph " << p << "." << i
                << " lorem ipsum dolor sit amet consectetur adipiscing "
                   "elit sed do eiusmod tempor\n";
        }
    }
    tex << "\\bibliography{main}\n\\end{document}\n";

    std::string bib =
        "@inproceedings{browsix,\n"
        "  author={Powers, Bobby and Vilk, John and Berger, Emery D.},\n"
        "  title={Browsix: Bridging the Gap Between Unix and the "
        "Browser},\n"
        "  year={2017}\n}\n"
        "@inproceedings{doppio,\n"
        "  author={Vilk, John and Berger, Emery D.},\n"
        "  title={Doppio: Breaking the Browser Language Barrier},\n"
        "  year={2014}\n}\n";

    std::string makefile =
        "PDFLATEX = /usr/bin/pdflatex\n"
        "BIBTEX = /usr/bin/bibtex\n"
        "\n"
        "main.pdf: main.tex main.bbl\n"
        "\t$(PDFLATEX) main.tex\n"
        "\n"
        "main.bbl: main.bib main.aux\n"
        "\t$(BIBTEX) main\n"
        "\n"
        "main.aux: main.tex\n"
        "\t$(PDFLATEX) main.tex\n";

    root.writeFile(dir + "/main.tex", tex.str());
    root.writeFile(dir + "/main.bib", bib);
    root.writeFile(dir + "/Makefile", makefile);
}

} // namespace apps
} // namespace browsix
