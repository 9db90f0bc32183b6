// Connected-component labeling of a binary image — the classic application
// of CC algorithms (and of cellular processing: the pixel grid maps onto
// the cell field naturally).
//
//   $ ./image_labeling [--width 16 --height 10 --density 0.45 --seed 7]
//
// Foreground pixels become graph nodes; 4-adjacent foreground pixels are
// connected.  The GCA labels the blobs; the output shows the image and the
// blob ids.
#include <cstdio>
#include <map>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/hirschberg_gca.hpp"
#include "graph/graph.hpp"
#include "graph/labeling.hpp"
#include "graph/union_find.hpp"

namespace {

struct Image {
  std::size_t width = 0;
  std::size_t height = 0;
  std::vector<std::uint8_t> pixels;  // 1 = foreground

  [[nodiscard]] bool at(std::size_t x, std::size_t y) const {
    return pixels[y * width + x] != 0;
  }
};

Image random_blobs(std::size_t width, std::size_t height, double density,
                   std::uint64_t seed) {
  Image image{width, height, std::vector<std::uint8_t>(width * height, 0)};
  gcalib::Xoshiro256 rng(seed);
  for (auto& p : image.pixels) p = rng.bernoulli(density) ? 1 : 0;
  return image;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcalib;
  const CliArgs args = CliArgs::parse_or_exit(argc, argv,
                                      {{"width", true},
                                       {"height", true},
                                       {"density", true},
                                       {"seed", true}});
  const auto width = static_cast<std::size_t>(args.get_int("width", 16));
  const auto height = static_cast<std::size_t>(args.get_int("height", 10));
  const double density = args.get_double("density", 0.45);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

  const Image image = random_blobs(width, height, density, seed);

  // Build the pixel-adjacency graph over foreground pixels only.
  std::vector<graph::NodeId> node_of(width * height, 0);
  graph::NodeId nodes = 0;
  for (std::size_t i = 0; i < image.pixels.size(); ++i) {
    if (image.pixels[i]) node_of[i] = nodes++;
  }
  std::vector<graph::Edge> edges;
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      if (!image.at(x, y)) continue;
      if (x + 1 < width && image.at(x + 1, y)) {
        edges.push_back({node_of[y * width + x], node_of[y * width + x + 1]});
      }
      if (y + 1 < height && image.at(x, y + 1)) {
        edges.push_back({node_of[y * width + x], node_of[(y + 1) * width + x]});
      }
    }
  }
  const graph::Graph g = graph::Graph::from_edges(nodes, edges);

  // Label on the GCA and sanity-check against union-find.
  const std::vector<graph::NodeId> labels = core::gca_components(g);
  if (labels != graph::union_find_components(g)) {
    std::fprintf(stderr, "GCA and union-find disagree — bug!\n");
    return 1;
  }

  // Compact blob ids for display (min-id labels -> 0,1,2,... a..z).
  std::map<graph::NodeId, char> glyph;
  for (graph::NodeId l : labels) {
    if (glyph.count(l) == 0) {
      const std::size_t k = glyph.size();
      glyph[l] = k < 10 ? static_cast<char>('0' + k)
                        : static_cast<char>('a' + (k - 10) % 26);
    }
  }

  std::printf("binary image (%zux%zu, density %.2f):\n", width, height, density);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      std::putchar(image.at(x, y) ? '#' : '.');
    }
    std::putchar('\n');
  }

  std::printf("\nGCA blob labels (%zu blobs):\n",
              graph::component_count(labels));
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      std::putchar(image.at(x, y) ? glyph[labels[node_of[y * width + x]]] : '.');
    }
    std::putchar('\n');
  }

  std::printf("\nblob sizes: ");
  for (const auto& [rep, size] : graph::component_sizes(labels)) {
    std::printf("%u:%u ", rep, size);
  }
  std::printf("\n");
  return 0;
}
